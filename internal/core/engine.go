package core

import (
	"errors"
	"fmt"
	"sync/atomic"

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
// digest ingestion. Transport-agnostic: callers Seal, Publish and
// broadcast the digest Publish returns, and deliver incoming digests
// as one sender's run (OnDigestsFrom) or one receiver's flush from
// many senders (OnDigestBatch).
type Engine struct {
	key    identity.KeyPair
	params block.Params
	topo   *topology.Graph

	store   *ledger.Store
	cache   *ledger.DigestCache
	trust   *ledger.TrustStore
	vcache  *block.VerifyCache
	backend *ledger.FileBackend // nil when the node is in-memory only

	// Seal scratch: neighbor list and Δ refs are assembled here
	// instead of fresh slices per block. Seal is not safe for
	// concurrent use with itself (seq assignment demands a single
	// generator), so unsynchronized scratch is fine.
	nbScratch  []identity.NodeID
	refScratch []block.DigestRef

	// signer is the engine's entry in vcache (block.VerifyCache.Register),
	// which holds it weakly: it lives as long as the engine. pending is the
	// header hash of the block Seal built last. sealed is the run of
	// S_i's sequence numbers [sealed>>32, uint32(sealed)) whose blocks
	// this engine built in Seal and published, the newest last; Publish
	// writes it, and signer.Sealed reads it from any goroutine.
	signer  block.Signer
	pending digest.Digest
	sealed  atomic.Uint64
}

// EngineOptions overrides the state an engine would otherwise build for
// itself: a recovered node resumes on its persisted stores, and the
// simulator backs thousands of engines with one process-wide
// verification cache.
type EngineOptions struct {
	// State replaces the default empty ledger.NewNodeState — how a
	// recovered node resumes with its persisted S_i, H_i and A_i. Its
	// store must be owned by the engine's node ID.
	State *ledger.NodeState
	// TrustCap, when > 0, bounds H_i to that many headers (FIFO
	// eviction; ledger.TrustStore.SetCap). Applied to an injected
	// State's trust store too, so config and recovered state agree.
	TrustCap int
	// Backend, when non-nil, is attached as the durability journal on
	// the state (ledger.NodeState.Attach) — after any injected
	// (recovered) state, so recovery itself is never re-journaled. The
	// engine does not manage the backend's lifecycle; whoever opened
	// it closes it.
	Backend *ledger.FileBackend
	// VerifyCache replaces the engine-private cache. Verification
	// results are objective facts about sealed headers (the cache keys
	// on header hash and records only successes), so engines that share
	// one (Params, Ring) pair share one cache per process — the
	// simulator's engines and a Cluster's devices do — which verifies
	// each header once and deduplicates the cached state n-fold. The
	// engine registers itself there as its node's signer, so a header it
	// sealed and published is not re-verified against its own signature
	// by any validator sharing the cache
	// (block.Params.ValidateHeaderCached).
	VerifyCache *block.VerifyCache
}

// NewEngine builds the state machine for one node.
func NewEngine(key identity.KeyPair, params block.Params, topo *topology.Graph) (*Engine, error) {
	return NewEngineWith(key, params, topo, EngineOptions{})
}

// NewEngineWith builds the state machine for one node with explicit
// storage backing (see EngineOptions). It registers the engine as its
// node's signer with the verification cache (block.VerifyCache.Register),
// in place of any engine registered there for the node before: key,
// and the header hash of each block this engine builds in Seal and
// publishes through Publish. Blocks already in an injected State, and
// any appended to the store some other way, are not the engine's own,
// and their headers are verified in full like any other's.
func NewEngineWith(key identity.KeyPair, params block.Params, topo *topology.Graph, opts EngineOptions) (*Engine, error) {
	if topo == nil {
		return nil, errors.New("core: Engine requires a topology")
	}
	if !topo.Has(key.ID) {
		return nil, fmt.Errorf("core: node %v not in topology", key.ID)
	}
	st := opts.State
	if st == nil {
		st = ledger.NewNodeState(key.ID, 0)
	} else if owner := st.Store.Owner(); owner != key.ID {
		return nil, fmt.Errorf("core: injected store owned by %v, engine is %v", owner, key.ID)
	}
	if opts.TrustCap > 0 {
		st.Trust.SetCap(opts.TrustCap)
	}
	// A nil *FileBackend in the Journal interface is not a nil journal.
	if opts.Backend != nil {
		st.Attach(opts.Backend)
	}
	vcache := opts.VerifyCache
	if vcache == nil {
		vcache = block.NewVerifyCache()
	}
	e := &Engine{
		key:     key,
		params:  params,
		topo:    topo,
		store:   st.Store,
		cache:   st.Cache,
		trust:   st.Trust,
		vcache:  vcache,
		backend: opts.Backend,
	}
	e.signer = block.Signer{Key: &e.key, Sealed: e.sealedHash}
	vcache.Register(&e.signer)
	return e, nil
}

// sealedHash returns the header hash of block seq if this engine built
// it in Seal and published it (block.Signer.Sealed).
func (e *Engine) sealedHash(seq uint32) (digest.Digest, bool) {
	r := e.sealed.Load()
	if seq < uint32(r>>32) || seq >= uint32(r) {
		return digest.Digest{}, false
	}
	return e.store.HashAt(seq)
}

// FlushJournal writes the backend's buffered records without an fsync
// (ledger.FileBackend.Flush), so a crash of this process no longer loses
// them. A no-op for in-memory engines.
func (e *Engine) FlushJournal() error {
	if e.backend == nil {
		return nil
	}
	return e.backend.Flush()
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
// the view a compaction commits to segment and checkpoint. The
// structures are the live ones, not copies; the writer takes each
// structure's read lock itself.
func (e *Engine) State() *ledger.NodeState {
	return &ledger.NodeState{
		Store:    e.store,
		Trust:    e.trust,
		Cache:    e.cache,
		TrustCap: e.trust.Cap(),
	}
}

// VerifyCache exposes the engine's header-validation cache, shared by
// every validator built from this engine and by every engine given the
// same EngineOptions.VerifyCache, so cryptographic checks carry over
// between audits and between nodes.
func (e *Engine) VerifyCache() *block.VerifyCache { return e.vcache }

// OnDigestBatch ingests a batch of digest announcements — from[i]
// announced ds[i] — in one pass: every sender is checked against the
// radio topology first, then A_i is updated under a single lock
// acquisition (ledger.DigestCache.UpdateBatch). Entries apply in slice
// order, so a later digest from the same sender wins, exactly as the
// equivalent sequence of one-digest OnDigestsFrom calls. The batch is
// all-or-nothing: a non-neighbor sender (or mismatched slice lengths)
// rejects the whole batch before any entry lands in A_i. The engine
// never retains the slices, so callers may reuse them across batches.
//
// Safe for concurrent use with OnDigestsFrom; per-receiver batch
// delivery (one goroutine per receiving engine) needs no locking
// beyond the cache's own.
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

// Seal assembles, mines and signs the node's next block and, on a
// durable engine, stages its record in the backend
// (ledger.FileBackend.StageBlock) without appending it to S_i; with no
// backend it only builds the block. The driver seals a round of
// engines this way, closes the window they share with one fsync, and
// then Publishes each block — or, when the window failed, publishes
// none, and store and log still agree. Seal is not concurrent with
// itself (sequence numbers are assigned from the store tail; other
// engine methods may run concurrently with it), and the block it
// returns is published (or dropped) before the next one is sealed.
func (e *Engine) Seal(t uint32, body []byte) (*block.Block, error) {
	var prev digest.Digest
	seq := uint32(e.store.Len())
	if latest := e.store.Latest(); latest != nil {
		prev = latest.Header.Hash()
	}
	// Neighbor set and Δ refs go through engine scratch: Build copies
	// both out, so the scratch is free for the next Seal. This keeps
	// block generation allocation-flat for the simulator's hot loop.
	e.nbScratch = e.topo.AppendNeighbors(e.nbScratch[:0], e.key.ID)
	e.refScratch = e.cache.AppendSnapshot(e.refScratch[:0], e.key.ID, prev, e.nbScratch)
	b, err := e.params.Build(e.key, t, seq, body, e.refScratch)
	if err != nil {
		return nil, fmt.Errorf("core: generating block %v#%d: %w", e.key.ID, seq, err)
	}
	if e.backend != nil {
		if err := e.backend.StageBlock(b); err != nil {
			return nil, err
		}
	}
	e.pending = b.Header.Hash()
	return b, nil
}

// Publish appends a block the engine built to S_i — for one Seal
// staged, without writing its record again — and returns it with the
// digest to announce. The block the last Seal built joins the run of
// S_i this engine vouches for as its signer (NewEngineWith); a block
// appended to the store past the engine breaks the run, and it starts
// over at the engine's next block.
func (e *Engine) Publish(b *block.Block) (*block.Block, digest.Digest, error) {
	if err := e.store.Append(b); err != nil {
		return nil, digest.Digest{}, fmt.Errorf("core: appending block: %w", err)
	}
	d := b.Header.Hash()
	if d == e.pending {
		seq := b.Header.Seq
		r := e.sealed.Load()
		from := uint32(r >> 32)
		if seq != uint32(r) {
			from = seq
		}
		e.sealed.Store(uint64(from)<<32 | uint64(seq+1))
	}
	return b, d, nil
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
