package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/node"
	"github.com/twoldag/twoldag/internal/pow"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// ErrClosed reports an operation on a closed Host.
var ErrClosed = errors.New("cluster: host closed")

// Config assembles a single-node Host. Every process of one cluster
// must share Nodes, Seed, Gamma and Difficulty — the planned topology,
// identities and consensus parameters all derive from them.
type Config struct {
	// ID is this process's planned identity (serve mode). Ignored when
	// Join is set — a dynamic joiner's ID comes out of the placement
	// rule.
	ID identity.NodeID
	// Join marks this process a dynamic joiner: it discovers the
	// cluster via JoinAddr, re-anchors to the newest live member, and
	// announces itself to everyone.
	Join bool
	// JoinAddr is a running member's advertised address. Required in
	// Join mode; optional in serve mode, where it bootstraps the peer
	// directory (the first serving process of a cluster leaves it
	// empty).
	JoinAddr string
	// Nodes is the planned cluster size.
	Nodes int
	// Seed anchors placement and identities.
	Seed int64
	// Gamma is the PoP consensus threshold γ.
	Gamma int
	// Difficulty is the proof-of-work level ρ in bits.
	Difficulty uint8
	// Listen is the TCP bind address (default "127.0.0.1:0").
	Listen string
	// Advertise overrides the address announced to peers (NAT-style
	// rewriting, ":0" binds).
	Advertise string
	// RequestTimeout is τ for PoP requests and the acknowledgement
	// deadline fallback (default 2s).
	RequestTimeout time.Duration
	// Retry bounds announcement and PoP re-transmission.
	Retry faults.RetryPolicy
	// Plan, when active, wraps the transport in seeded fault injection.
	Plan faults.Plan
	// Observer, when non-nil, receives the node's event stream.
	Observer events.Observer
	// DataDir, when set, makes the ledger durable: a file-backed WAL +
	// segment + checkpoint backend (ledger.FileBackend) opens there, the
	// node recovers its whole prior state (S_i, H_i, A_i) before
	// serving, every sealed block is fsynced before Seal returns it or
	// any peer can read it, and every CompactEvery blocks the WAL's
	// blocks move to the segment and the rest of the state to a fresh
	// checkpoint. Empty = in-memory only (the no-op backend).
	DataDir string
	// TrustCap bounds H_i to that many headers (FIFO eviction;
	// 0 = unbounded). With DataDir set the cap is persisted in the
	// checkpoint and survives restarts even if the flag is dropped.
	TrustCap int
	// CompactEvery is the WAL compaction threshold in block records
	// (default 256; only meaningful with DataDir).
	CompactEvery int

	// backendOpts go to the data dir's log: set only by tests, to inject
	// storage faults under it.
	backendOpts []ledger.BackendOption
}

// DefaultCompactEvery is the WAL compaction threshold (in block
// records) when Config.CompactEvery is zero — shared with the facade
// driver so both seal paths bound their replay tails identically.
const DefaultCompactEvery = 256

// member is one directory entry.
type member struct {
	live   bool
	addr   string
	anchor identity.NodeID // wire.NoAnchor for planned members
}

// Host runs one 2LDAG device in this process as part of a cross-host
// cluster: a node over real TCP, a membership directory maintained via
// Hello/PeerList/Leave frames, and the slot/seal/flush/audit verbs a
// distributed driver needs. Verbs are safe for the documented Runtime
// concurrency: audits may run concurrently, membership changes and
// submissions must not race each other.
type Host struct {
	cfg     Config
	id      identity.NodeID
	anchor  identity.NodeID
	pos     topology.Point
	topo    *topology.Graph
	ring    *identity.Ring
	node    *node.Node
	tn      *transport.TCPNode
	tracker *AckTracker
	health  *faults.Health
	obs     events.Observer // merged user observer + tracker
	backend *ledger.FileBackend
	slot    atomic.Uint32

	mu      sync.Mutex
	members map[identity.NodeID]*member
	ids     []identity.NodeID // known devices in join order

	ctx    context.Context
	cancel context.CancelFunc
	// Verb lifecycle: begin registers under verbMu.RLock, so Close can
	// take the write lock to flip closed and know no wg.Add can race
	// its wg.Wait (a bare atomic double-check would let an Add from a
	// zero counter run concurrently with Wait, which WaitGroup forbids).
	verbMu  sync.RWMutex
	wg      sync.WaitGroup // in-flight verbs, drained by Close
	closeMu sync.Mutex
	closed  atomic.Bool
}

// Start builds the host: it derives the shared world from (Nodes,
// Seed), discovers the cluster through JoinAddr when given, computes
// its placement (planned or dynamic), starts listening and announces
// itself to every known live member.
func Start(cfg Config) (*Host, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("cluster: Config.Nodes must be positive")
	}
	if cfg.Join && cfg.JoinAddr == "" {
		return nil, errors.New("cluster: Join mode requires JoinAddr")
	}
	if !cfg.Join && int(cfg.ID) >= cfg.Nodes {
		return nil, fmt.Errorf("cluster: planned ID %v out of range for %d nodes", cfg.ID, cfg.Nodes)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}

	topo, err := topology.Deployment(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	h := &Host{
		cfg:     cfg,
		id:      cfg.ID,
		anchor:  wire.NoAnchor,
		topo:    topo,
		ring:    identity.NewRing(),
		tracker: NewAckTracker(),
		members: make(map[identity.NodeID]*member, cfg.Nodes),
	}
	if cfg.Join {
		// No identity until placement: park on the bootstrap sentinel so
		// directory merges can't mistake a real member's entry for our
		// own.
		h.id = wire.BootstrapID
	}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	for _, id := range topo.Nodes() {
		kp := identity.Deterministic(id, cfg.Seed)
		if err := h.ring.Register(kp.ID, kp.Public); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		h.members[id] = &member{anchor: wire.NoAnchor}
		h.ids = append(h.ids, id)
	}

	// Discovery: one raw-dial exchange against the bootstrap member
	// yields the current directory — addresses, liveness, and every
	// dynamic join to replay into the planned topology.
	if cfg.JoinAddr != "" {
		bctx, bcancel := context.WithTimeout(h.ctx, cfg.RequestTimeout)
		hello := wire.NewHello(wire.BootstrapID, 0, wire.HelloInfo{Anchor: wire.NoAnchor}, 1, 1)
		reply, err := transport.Bootstrap(bctx, cfg.JoinAddr, hello)
		bcancel()
		if err != nil {
			return nil, fmt.Errorf("cluster: discovering via %s: %w", cfg.JoinAddr, err)
		}
		entries, err := reply.DecodePeerListPayload()
		if err != nil {
			return nil, fmt.Errorf("cluster: bad directory from %s: %w", cfg.JoinAddr, err)
		}
		h.merge(entries)
	}

	// Placement: planned members take their generated position; a
	// joiner runs the shared placement rule against the replayed
	// topology, exactly as the in-process drivers do.
	if cfg.Join {
		h.mu.Lock()
		pl, err := PlanJoin(h.topo, h.ids, func(id identity.NodeID) bool {
			m, ok := h.members[id]
			return ok && m.live
		})
		if err == nil {
			err = pl.Apply(h.topo)
		}
		if err != nil {
			h.mu.Unlock()
			return nil, err
		}
		h.id, h.anchor, h.pos = pl.ID, pl.Anchor, pl.Pos
		kp := identity.Deterministic(h.id, cfg.Seed)
		if rerr := h.ring.Register(kp.ID, kp.Public); rerr != nil {
			h.mu.Unlock()
			return nil, fmt.Errorf("cluster: %w", rerr)
		}
		h.members[h.id] = &member{anchor: h.anchor}
		h.ids = append(h.ids, h.id)
		h.mu.Unlock()
	} else {
		h.pos, _ = topo.Position(h.id)
	}

	if err := h.startNode(); err != nil {
		return nil, err
	}
	if err := h.announceSelf(); err != nil {
		_ = h.node.Close()
		return nil, err
	}
	return h, nil
}

// startNode brings up the transport and node runtime.
func (h *Host) startNode() error {
	var opts []transport.TCPOption
	if h.cfg.Advertise != "" {
		opts = append(opts, transport.WithAdvertiseAddr(h.cfg.Advertise))
	}
	tn, err := transport.ListenTCP(h.id, h.cfg.Listen, nil, opts...)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	h.tn = tn
	h.mu.Lock()
	for id, m := range h.members {
		if id != h.id && m.addr != "" {
			tn.SetPeer(id, m.addr)
		}
	}
	if m := h.members[h.id]; m != nil {
		m.live = true
		m.addr = tn.AdvertiseAddr()
	}
	h.mu.Unlock()

	// User observers run before the tracker: the tracker's ack is what
	// unblocks a waiting Flush, so ordering it last guarantees every
	// user observer has already seen a delivery by the time the
	// submitter returns.
	obs := events.Multi(h.cfg.Observer, h.tracker)
	self := h.id
	tn.SetDropHandler(func(env transport.Envelope) {
		obs.OnMessageDropped(events.MessageDropped{
			From: env.From, To: self, Kind: uint8(env.Msg.Kind),
			Reason: events.DropBackpressure,
		})
	})
	h.obs = obs
	h.health = faults.NewHealth(h.id, 0, obs)

	params := block.DefaultParams()
	params.Difficulty = pow.Difficulty(h.cfg.Difficulty)
	tr := transport.Transport(tn)
	if h.cfg.Plan.Active() {
		slot := &h.slot
		tr = faults.Wrap(tn, h.cfg.Plan, func() uint32 { return slot.Load() }, obs)
	}

	// Durability: open the data dir and recover the whole prior state
	// — checkpoint and segment, then WAL replay, with cryptographic
	// re-verification against the ring — before the node serves any
	// traffic.
	var state *ledger.NodeState
	var backend ledger.Backend
	if h.cfg.DataDir != "" {
		bopts := h.cfg.backendOpts
		if co, ok := h.cfg.Observer.(ledger.CommitObserver); ok {
			bopts = append(bopts, ledger.WithCommitObserver(co))
		}
		fb, err := ledger.OpenFileBackend(h.cfg.DataDir, bopts...)
		if err != nil {
			tn.Close()
			return err
		}
		state, err = fb.Recover(ledger.RecoverOptions{
			Owner:    h.id,
			Params:   params,
			Ring:     h.ring,
			TrustCap: h.cfg.TrustCap,
		})
		if err != nil {
			_ = fb.Close()
			tn.Close()
			return fmt.Errorf("cluster: recovering %s: %w", h.cfg.DataDir, err)
		}
		h.backend = fb
		backend = fb
	}

	n, err := node.New(node.Config{
		Key:            identity.Deterministic(h.id, h.cfg.Seed),
		Params:         params,
		Topo:           h.topo,
		Ring:           h.ring,
		Transport:      tr,
		Gamma:          h.cfg.Gamma,
		RequestTimeout: h.cfg.RequestTimeout,
		Retry:          h.cfg.Retry,
		Health:         h.health,
		Observer:       obs,
		Control:        h.onControl,
		State:          state,
		TrustCap:       h.cfg.TrustCap,
		Backend:        backend,
		AnnounceAcks:   true,
	})
	if err != nil {
		if h.backend != nil {
			_ = h.backend.Close()
			h.backend = nil
		}
		tn.Close()
		return fmt.Errorf("cluster: %w", err)
	}
	slot := &h.slot
	n.SetClock(func() uint32 { return slot.Load() })
	h.node = n
	tn.SetBootstrapHandler(h.onBootstrap)
	return nil
}

// announceSelf fans a Hello out to every known live member, merging
// each PeerList reply. Hellos ride the (possibly fault-wrapped)
// transport, so each exchange retries under the configured policy.
func (h *Host) announceSelf() error {
	h.mu.Lock()
	peers := make([]identity.NodeID, 0, len(h.members))
	for id, m := range h.members {
		if id != h.id && m.live && m.addr != "" {
			peers = append(peers, id)
		}
	}
	h.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, peer := range peers {
		if err := h.helloExchange(peer); err != nil {
			return fmt.Errorf("cluster: hello to %v: %w", peer, err)
		}
	}
	return nil
}

// helloExchange runs one Hello → PeerList round trip with bounded
// retry (announcement frames can be dropped by an active fault plan).
func (h *Host) helloExchange(peer identity.NodeID) error {
	kp := identity.Deterministic(h.id, h.cfg.Seed)
	info := wire.HelloInfo{
		Addr:   h.tn.AdvertiseAddr(),
		PubKey: kp.Public,
		Anchor: h.anchor,
		X:      h.pos.X,
		Y:      h.pos.Y,
	}
	attempts := h.cfg.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if wait := h.cfg.Retry.Backoff(attempt, uint64(peer)); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-h.ctx.Done():
					timer.Stop()
					return h.ctx.Err()
				case <-timer.C:
				}
			}
		}
		var resp *wire.Message
		resp, err = h.node.Call(h.ctx, peer, func(corr, nonce uint64) *wire.Message {
			return wire.NewHello(h.id, peer, info, corr, nonce)
		})
		if err != nil {
			continue
		}
		var entries []wire.PeerEntry
		entries, err = resp.DecodePeerListPayload()
		if err != nil {
			continue
		}
		h.merge(entries)
		return nil
	}
	return err
}

// merge folds a directory snapshot into local state: unknown dynamic
// joiners are replayed into the topology and key ring (identities are
// deterministic, so the key derives from the seed rather than trusting
// the carried bytes), and addresses and liveness are adopted.
func (h *Host) merge(entries []wire.PeerEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range entries {
		if e.ID == h.id {
			continue
		}
		m, known := h.members[e.ID]
		if !known {
			if e.Anchor == wire.NoAnchor {
				continue // not planned, not a join record: ignore
			}
			pl := Placement{ID: e.ID, Anchor: e.Anchor, Pos: topology.Point{X: e.X, Y: e.Y}}
			if err := pl.Apply(h.topo); err != nil {
				continue
			}
			kp := identity.Deterministic(e.ID, h.cfg.Seed)
			_ = h.ring.Register(kp.ID, kp.Public)
			m = &member{anchor: e.Anchor}
			h.members[e.ID] = m
			h.ids = append(h.ids, e.ID)
		}
		m.live = e.Live
		if e.Addr != "" {
			m.addr = e.Addr
			if h.tn != nil {
				h.tn.SetPeer(e.ID, e.Addr)
			}
		}
	}
}

// snapshot renders the directory for a PeerList, in join order.
// Callers must not hold h.mu.
func (h *Host) snapshot() []wire.PeerEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	entries := make([]wire.PeerEntry, 0, len(h.ids))
	for _, id := range h.ids {
		m := h.members[id]
		p, _ := h.topo.Position(id)
		entries = append(entries, wire.PeerEntry{
			ID: id, Live: m.live, Anchor: m.anchor,
			X: p.X, Y: p.Y, Addr: m.addr,
		})
	}
	return entries
}

// onBootstrap answers a joiner's anonymous discovery query with the
// directory (reply written straight back on the joiner's connection —
// it has no listener registered anywhere yet).
func (h *Host) onBootstrap(msg *wire.Message) *wire.Message {
	if msg.Kind != wire.KindHello {
		return nil
	}
	return wire.NewPeerList(msg, h.snapshot())
}

// onControl serves membership-plane frames from the node's dispatch
// loop.
func (h *Host) onControl(env transport.Envelope) {
	msg := env.Msg
	switch msg.Kind {
	case wire.KindHello:
		info, err := msg.DecodeHelloPayload()
		if err != nil {
			return
		}
		h.mu.Lock()
		from := msg.From
		m, known := h.members[from]
		if !known {
			if info.Anchor == wire.NoAnchor {
				h.mu.Unlock()
				return // claims planned membership in a different world
			}
			pl := Placement{ID: from, Anchor: info.Anchor, Pos: topology.Point{X: info.X, Y: info.Y}}
			if err := pl.Apply(h.topo); err != nil {
				h.mu.Unlock()
				return
			}
			kp := identity.Deterministic(from, h.cfg.Seed)
			_ = h.ring.Register(kp.ID, kp.Public)
			m = &member{anchor: info.Anchor}
			h.members[from] = m
			h.ids = append(h.ids, from)
		}
		m.live = true
		if info.Addr != "" {
			m.addr = info.Addr
			h.tn.SetPeer(from, info.Addr)
		}
		h.mu.Unlock()
		// A node re-admitting itself clears any open circuit.
		h.health.ReportSuccess(from)
		_ = h.node.Send(h.ctx, from, wire.NewPeerList(msg, h.snapshot()))
	case wire.KindPeerList:
		// Corr≠0 replies route to the RPC pending map; only pushes land
		// here.
		if entries, err := msg.DecodePeerListPayload(); err == nil {
			h.merge(entries)
		}
	case wire.KindLeave:
		h.MarkDead(msg.From)
	}
}

// ID returns this host's device identity.
func (h *Host) ID() identity.NodeID { return h.id }

// Addr returns the address peers are told to dial.
func (h *Host) Addr() string { return h.tn.AdvertiseAddr() }

// Topology exposes the host's view of the radio graph.
func (h *Host) Topology() *topology.Graph { return h.topo }

// SetSlot pins logical time; blocks sealed afterwards carry it.
func (h *Host) SetSlot(s uint32) { h.slot.Store(s) }

// Slot returns the current logical time.
func (h *Host) Slot() uint32 { return h.slot.Load() }

// Live lists the members this host believes are running, ascending.
func (h *Host) Live() []identity.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]identity.NodeID, 0, len(h.members))
	for id, m := range h.members {
		if m.live {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkDead records a member as stopped: announcements no longer await
// its acknowledgement, audits route around it, and its directory entry
// drops so sends fail fast — the distributed analog of the in-process
// drivers' Silence.
func (h *Host) MarkDead(id identity.NodeID) {
	h.mu.Lock()
	if m, ok := h.members[id]; ok {
		m.live = false
	}
	h.mu.Unlock()
	h.health.Suspect(id)
	h.tn.RemovePeer(id)
}

// liveNeighbors returns id's radio neighbors believed running.
func (h *Host) liveNeighbors(id identity.NodeID) []identity.NodeID {
	nbs := h.topo.Neighbors(id)
	h.mu.Lock()
	defer h.mu.Unlock()
	out := nbs[:0]
	for _, nb := range nbs {
		if m, ok := h.members[nb]; ok && m.live {
			out = append(out, nb)
		}
	}
	return out
}

// begin registers an in-flight verb; Close drains them.
func (h *Host) begin() error {
	h.verbMu.RLock()
	defer h.verbMu.RUnlock()
	if h.closed.Load() {
		return ErrClosed
	}
	h.wg.Add(1)
	return nil
}

// opCtx bounds a verb: the caller's deadline rules when present
// (falling back to the request timeout), and closing the host cancels
// the verb either way.
func (h *Host) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	var cancel context.CancelFunc
	if _, ok := ctx.Deadline(); ok {
		ctx, cancel = context.WithCancel(ctx)
	} else {
		ctx, cancel = context.WithTimeout(ctx, h.cfg.RequestTimeout)
	}
	stop := context.AfterFunc(h.ctx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Seal mines and signs this node's next block from data without
// announcing it, returning the block ref and the digest to flush. The
// seal/flush split lets a distributed driver seal a whole slot across
// all processes before any announcement flows — the same phase order
// the in-process SubmitBatch enforces, which sealed-header equivalence
// depends on (headers embed the A_i snapshot at seal time).
//
// With a data dir Seal runs SubmitBatch's three steps for a round of
// one: stage the block's record, close the commit window with one
// fsync, and only then append the block to S_i. So the block is
// durable before any peer can read it, and a window that fails
// publishes nothing: Seal returns the error, and the next Seal seals
// the same sequence number again.
func (h *Host) Seal(data []byte) (block.Ref, digest.Digest, error) {
	if err := h.begin(); err != nil {
		return block.Ref{}, digest.Digest{}, err
	}
	defer h.wg.Done()
	b, err := h.node.SealLocal(data)
	if err == nil && h.backend != nil {
		err = h.backend.Commit()
	}
	var d digest.Digest
	if err == nil {
		d, err = h.node.PublishLocal(b)
	}
	if err != nil {
		return block.Ref{}, digest.Digest{}, err
	}
	h.maybeCompact()
	return b.Header.Ref(), d, nil
}

// maybeCompact folds the WAL into segment and checkpoint once the
// block-record threshold is reached. Runs inside the Seal verb (h.wg
// held), so Close never races the backend away mid-compaction;
// concurrent compactions coalesce inside the backend.
func (h *Host) maybeCompact() {
	if h.backend == nil {
		return
	}
	every := h.cfg.CompactEvery
	if every <= 0 {
		every = DefaultCompactEvery
	}
	if h.backend.PendingBlocks() < every {
		return
	}
	_ = h.backend.Compact(func() (*ledger.NodeState, error) {
		return h.node.Engine().State(), nil
	})
}

// Compact forces a WAL compaction now (no-op without a data dir) —
// exposed so tests and operators can bound the replay tail on demand.
func (h *Host) Compact() error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.wg.Done()
	if h.backend == nil {
		return nil
	}
	return h.backend.Compact(func() (*ledger.NodeState, error) {
		return h.node.Engine().State(), nil
	})
}

// RecoveryReport returns what startup recovery read from the data dir;
// ok is false without one. A true TornTail means the previous run's
// final, never-acknowledged WAL record was discarded — worth a log
// line, never an error.
func (h *Host) RecoveryReport() (ledger.RecoveryReport, bool) {
	if h.backend == nil {
		return ledger.RecoveryReport{}, false
	}
	return h.backend.RecoveryReport(), true
}

// Latest returns the ref and digest of this node's newest sealed
// block. ok is false for an empty store — a fresh node, or one whose
// data dir held nothing.
func (h *Host) Latest() (ref block.Ref, d digest.Digest, ok bool) {
	b := h.node.Engine().Store().Latest()
	if b == nil {
		return block.Ref{}, digest.Digest{}, false
	}
	return b.Header.Ref(), b.Header.Hash(), true
}

// StateDigest returns a canonical digest over the node's whole ledger
// state (ledger.NodeState.Digest: SHA-256 over the checkpoint's branch
// table — trust cap, each S_i block's header hash and body root, H_i's
// insertion count and header hashes, A_i) for identity checks across
// crash/recovery boundaries. Equal states give equal digests; the
// values differ from those of builds that hashed the whole snapshot-v2
// stream instead.
func (h *Host) StateDigest() digest.Digest {
	return h.node.Engine().State().Digest()
}

// Flush announces previously sealed digests (in seal order) to every
// radio neighbor and blocks until each live neighbor acknowledged
// every digest, via wire-level DigestAcks (AckTracker.Announce).
func (h *Host) Flush(ctx context.Context, ds []digest.Digest) error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.wg.Done()
	flush := make([]Sealed, len(ds))
	for i, d := range ds {
		flush[i] = Sealed{Node: h.node, Digest: d}
	}
	actx, cancel := h.opCtx(ctx)
	defer cancel()
	return h.tracker.Announce(actx, flush, h.liveNeighbors, h.cfg.Retry, h.obs)
}

// Submit seals and flushes one block — the single-shot verb.
func (h *Host) Submit(ctx context.Context, data []byte) (block.Ref, error) {
	ref, d, err := h.Seal(data)
	if err != nil {
		return block.Ref{}, err
	}
	if err := h.Flush(ctx, []digest.Digest{d}); err != nil {
		return ref, err
	}
	return ref, nil
}

// Audit runs PoP from this node against ref.
func (h *Host) Audit(ctx context.Context, ref block.Ref) (*core.Result, error) {
	if err := h.begin(); err != nil {
		return nil, err
	}
	defer h.wg.Done()
	actx, cancel := h.opCtx(ctx)
	defer cancel()
	return h.node.Audit(actx, ref)
}

// Block fetches a block from this node's own store (read-only; with a
// data dir, read back from the segment once its body has moved there).
func (h *Host) Block(ref block.Ref) (*block.Block, error) {
	if ref.Node != h.id {
		return nil, fmt.Errorf("cluster: block %v is not local to %v", ref, h.id)
	}
	return h.node.Engine().Store().Get(ref.Seq)
}

// Close shuts the host down gracefully, in strict order: stop
// accepting verbs, cancel and drain every in-flight one (their retry
// loops are bounded by the policy cap and their contexts are dead),
// flush + fsync the durability backend — every accepted block is on
// disk before any peer learns we are leaving — then broadcast Leave so
// peers mark this node dead immediately instead of waiting for their
// health trackers, close the node — which closes the RPC layer, the
// transport and the listener — and only then close the backend. Until
// the node stops serving, a GET_BLOCK still reads a body that lives
// only in the segment, and journal writes from frames that arrive
// meanwhile still reach the log, which the backend's close commits.
func (h *Host) Close() error {
	h.closeMu.Lock()
	defer h.closeMu.Unlock()
	if h.closed.Load() {
		return nil
	}
	h.verbMu.Lock()
	h.closed.Store(true)
	h.verbMu.Unlock()
	h.cancel()
	h.wg.Wait()
	var backendErr error
	if h.backend != nil {
		backendErr = h.backend.Sync()
	}
	lctx, lcancel := context.WithTimeout(context.Background(), h.cfg.RequestTimeout)
	for _, peer := range h.Live() {
		if peer == h.id {
			continue
		}
		_ = h.node.Send(lctx, peer, wire.NewLeave(h.id, peer, h.node.NextNonce()))
	}
	lcancel()
	nodeErr := h.node.Close()
	if h.backend != nil {
		if err := h.backend.Close(); err != nil && backendErr == nil {
			backendErr = err
		}
	}
	if nodeErr != nil {
		return nodeErr
	}
	return backendErr
}
