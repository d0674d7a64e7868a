package core

import (
	"errors"
	"fmt"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology"
)

// ErrNotNeighbor reports a digest announcement from a node that is not a
// physical neighbor; 2LDAG nodes only accept digests over existing radio
// links (Sec. III-A, IV-D5).
var ErrNotNeighbor = errors.New("core: digest from non-neighbor")

// Engine is the node-side 2LDAG state machine of Sec. III: it owns the
// node's block log S_i, the neighbor digest cache A_i and the trusted
// header store H_i, and implements block generation (Sec. III-D) and
// digest ingestion. Transport-agnostic: callers deliver incoming
// digests via OnDigest and broadcast the digests Generate returns.
type Engine struct {
	key    identity.KeyPair
	params block.Params
	topo   *topology.Graph

	store   *ledger.Store
	cache   *ledger.DigestCache
	trust   *ledger.TrustStore
	vcache  *block.VerifyCache
	backend ledger.Backend // nil when the node is in-memory only

	// Generate scratch: neighbor list and Δ refs are assembled here
	// instead of fresh slices per block. Generate is not safe for
	// concurrent use with itself (it never was — seq assignment demands
	// a single generator), so unsynchronized scratch is fine.
	nbScratch  []identity.NodeID
	refScratch []block.DigestRef
}

// EngineOptions overrides the state an engine would otherwise build for
// itself: a recovered node resumes on its persisted stores, and the
// simulator backs thousands of engines with one process-wide
// verification cache.
type EngineOptions struct {
	// Store replaces the default empty ledger.NewStore — how a
	// recovered node resumes with its persisted S_i. Must be owned by
	// the engine's node ID.
	Store *ledger.Store
	// Trust replaces the default empty ledger.NewTrustStore — how a
	// recovered node resumes with its persisted H_i.
	Trust *ledger.TrustStore
	// Cache replaces the default empty ledger.NewDigestCache — how a
	// recovered node resumes with its persisted A_i.
	Cache *ledger.DigestCache
	// TrustCap, when > 0, bounds H_i to that many headers (FIFO
	// eviction; ledger.TrustStore.SetCap). Applied to the injected
	// Trust store too, so config and recovered state agree.
	TrustCap int
	// Backend, when non-nil, is attached as the durability journal on
	// the engine's store, trust store and digest cache — after any
	// injected (recovered) state, so recovery itself is never
	// re-journaled. The engine does not manage the backend's
	// lifecycle; whoever opened it closes it.
	Backend ledger.Backend
	// VerifyCache replaces the engine-private cache. Verification
	// results are objective facts about sealed headers (the cache keys
	// on header hash and records only successes), so sharing one across
	// engines is sound and deduplicates the cached state n-fold.
	VerifyCache *block.VerifyCache
}

// NewEngine builds the state machine for one node.
func NewEngine(key identity.KeyPair, params block.Params, topo *topology.Graph) (*Engine, error) {
	return NewEngineWith(key, params, topo, EngineOptions{})
}

// NewEngineWith builds the state machine for one node with explicit
// storage backing (see EngineOptions).
func NewEngineWith(key identity.KeyPair, params block.Params, topo *topology.Graph, opts EngineOptions) (*Engine, error) {
	if topo == nil {
		return nil, errors.New("core: Engine requires a topology")
	}
	if !topo.Has(key.ID) {
		return nil, fmt.Errorf("core: node %v not in topology", key.ID)
	}
	store := opts.Store
	if store == nil {
		store = ledger.NewStore(key.ID)
	} else if store.Owner() != key.ID {
		return nil, fmt.Errorf("core: injected store owned by %v, engine is %v", store.Owner(), key.ID)
	}
	vcache := opts.VerifyCache
	if vcache == nil {
		vcache = block.NewVerifyCache()
	}
	trust := opts.Trust
	if trust == nil {
		trust = ledger.NewTrustStore()
	}
	if opts.TrustCap > 0 {
		trust.SetCap(opts.TrustCap)
	}
	cache := opts.Cache
	if cache == nil {
		cache = ledger.NewDigestCache()
	}
	if opts.Backend != nil {
		store.SetJournal(opts.Backend)
		trust.SetJournal(opts.Backend)
		cache.SetJournal(opts.Backend)
	}
	return &Engine{
		key:     key,
		params:  params,
		topo:    topo,
		store:   store,
		cache:   cache,
		trust:   trust,
		vcache:  vcache,
		backend: opts.Backend,
	}, nil
}

// CommitJournal closes the backend's open WAL commit window, fsyncing
// every block record staged since the last commit. Drivers running a
// batched sync policy call it at their flush boundary — after sealing
// a slot's blocks, before announcing any of them — so durability is
// acknowledged once per slot instead of once per block. A no-op for
// in-memory engines.
func (e *Engine) CommitJournal() error {
	if e.backend == nil {
		return nil
	}
	return e.backend.Commit()
}

// ID returns the node's identity.
func (e *Engine) ID() identity.NodeID { return e.key.ID }

// Store exposes S_i (shared with responders and fetchers).
func (e *Engine) Store() *ledger.Store { return e.store }

// Trust exposes H_i (shared with this node's validator).
func (e *Engine) Trust() *ledger.TrustStore { return e.trust }

// Cache exposes A_i.
func (e *Engine) Cache() *ledger.DigestCache { return e.cache }

// State bundles the engine's ledger structures as a ledger.NodeState —
// the view snapshot-v2 compaction serializes. The structures are the
// live ones, not copies; the serializer takes each structure's read
// lock itself.
func (e *Engine) State() *ledger.NodeState {
	return &ledger.NodeState{
		Store:    e.store,
		Trust:    e.trust,
		Cache:    e.cache,
		TrustCap: e.trust.Cap(),
	}
}

// VerifyCache exposes the node's header-validation cache, shared by
// every validator built from this engine so cryptographic checks carry
// over between audits.
func (e *Engine) VerifyCache() *block.VerifyCache { return e.vcache }

// OnDigest ingests a digest announcement from a neighbor, replacing
// that neighbor's entry in A_i (Sec. III-D). Announcements from
// non-neighbors are rejected. It is the singleton shim over
// OnDigestBatch; transports and schedulers that collect a whole slot's
// announcements deliver them in one OnDigestBatch call instead.
func (e *Engine) OnDigest(from identity.NodeID, d digest.Digest) error {
	if !e.topo.IsNeighbor(e.key.ID, from) {
		return fmt.Errorf("%w: %v -> %v", ErrNotNeighbor, from, e.key.ID)
	}
	e.cache.Update(from, d)
	return nil
}

// OnDigestBatch ingests a batch of digest announcements — from[i]
// announced ds[i] — in one pass: every sender is checked against the
// radio topology first, then A_i is updated under a single lock
// acquisition (ledger.DigestCache.UpdateBatch). Entries apply in slice
// order, so a later digest from the same sender wins, exactly as the
// equivalent sequence of OnDigest calls. The batch is all-or-nothing:
// a non-neighbor sender (or mismatched slice lengths) rejects the
// whole batch before any entry lands in A_i. The engine never retains
// the slices, so callers may reuse them across batches.
//
// Safe for concurrent use with OnDigest; per-receiver batch delivery
// (one goroutine per receiving engine) needs no locking beyond the
// cache's own.
func (e *Engine) OnDigestBatch(from []identity.NodeID, ds []digest.Digest) error {
	if len(from) != len(ds) {
		return fmt.Errorf("core: digest batch length mismatch: %d senders, %d digests", len(from), len(ds))
	}
	for _, j := range from {
		if !e.topo.IsNeighbor(e.key.ID, j) {
			return fmt.Errorf("%w: %v -> %v", ErrNotNeighbor, j, e.key.ID)
		}
	}
	e.cache.UpdateBatch(from, ds)
	return nil
}

// OnDigestsFrom ingests one neighbor's run of announcements in seal
// order — the shape a wire DigestBatch frame carries. Because A_i
// keeps only the sender's newest digest, the whole run costs one
// neighbor check and one cache update regardless of length; the
// all-or-nothing and ordering contracts match OnDigestBatch with a
// repeated sender column.
func (e *Engine) OnDigestsFrom(from identity.NodeID, ds []digest.Digest) error {
	if len(ds) == 0 {
		return nil
	}
	if !e.topo.IsNeighbor(e.key.ID, from) {
		return fmt.Errorf("%w: %v -> %v", ErrNotNeighbor, from, e.key.ID)
	}
	e.cache.Update(from, ds[len(ds)-1])
	return nil
}

// Generate assembles, mines, signs and appends the node's next block
// over the given body. It returns the block together with the digest
// H(b^h) that must be announced to every neighbor.
//
// Generate must not be called concurrently with itself on the same
// engine (sequence numbers are assigned from the store tail); other
// engine methods may run concurrently with it.
func (e *Engine) Generate(t uint32, body []byte) (*block.Block, digest.Digest, error) {
	b, err := e.build(t, body)
	if err != nil {
		return nil, digest.Digest{}, err
	}
	return e.Publish(b)
}

// build assembles, mines and signs the node's next block.
func (e *Engine) build(t uint32, body []byte) (*block.Block, error) {
	var prev digest.Digest
	seq := uint32(e.store.Len())
	if latest := e.store.Latest(); latest != nil {
		prev = latest.Header.Hash()
	}
	// Neighbor set and Δ refs go through engine scratch: Build copies
	// both out, so the scratch is free for the next Generate. This keeps
	// block generation allocation-flat for the simulator's hot loop.
	e.nbScratch = e.topo.AppendNeighbors(e.nbScratch[:0], e.key.ID)
	e.refScratch = e.cache.AppendSnapshot(e.refScratch[:0], e.key.ID, prev, e.nbScratch)
	b, err := e.params.Build(e.key, t, seq, body, e.refScratch)
	if err != nil {
		return nil, fmt.Errorf("core: generating block %v#%d: %w", e.key.ID, seq, err)
	}
	return b, nil
}

// Seal is the first half of a Generate split around a commit window:
// it assembles, mines and signs the next block and stages its record
// in the backend (ledger.Backend.StageBlock) without appending it to
// S_i. The driver seals a round of engines this way, closes the
// window they share with one fsync, and then Publishes each block —
// or, when the window failed, publishes none, and store and log still
// agree. Like Generate it is not concurrent with itself, and the block
// it returns is published (or dropped) before the next one is sealed.
func (e *Engine) Seal(t uint32, body []byte) (*block.Block, error) {
	b, err := e.build(t, body)
	if err == nil && e.backend != nil {
		err = e.backend.StageBlock(b)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Publish appends a block the engine built to S_i — for one Seal
// staged, without writing its record again — and returns it with the
// digest to announce.
func (e *Engine) Publish(b *block.Block) (*block.Block, digest.Digest, error) {
	if err := e.store.Append(b); err != nil {
		return nil, digest.Digest{}, fmt.Errorf("core: appending block: %w", err)
	}
	return b, b.Header.Hash(), nil
}

// Validator constructs a PoP validator bound to this node's trust store.
func (e *Engine) Validator(gamma int, ring *identity.Ring, opts ...func(*ValidatorConfig)) (*Validator, error) {
	cfg := ValidatorConfig{
		Self:        e.key.ID,
		Gamma:       gamma,
		Params:      e.params,
		Ring:        ring,
		Topo:        e.topo,
		Trust:       e.trust,
		VerifyCache: e.vcache,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return NewValidator(cfg)
}

// Responder constructs this node's Algorithm 4 responder.
func (e *Engine) Responder() *Responder {
	return NewResponder(e.store)
}
