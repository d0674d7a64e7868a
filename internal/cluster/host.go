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
	// DataDir, when set, makes the ledger durable, laid out as a
	// Cluster's data dir is (Sealer): the node recovers its whole prior
	// state (S_i, H_i, A_i) before serving, every sealed block is
	// fsynced before Seal returns it or any peer can read it, and every
	// DefaultCompactEvery blocks the WAL's blocks move to the segment
	// and the rest of the state to a fresh checkpoint. Empty = in-memory
	// only (the no-op backend).
	DataDir string
	// TrustCap bounds H_i to that many headers (FIFO eviction;
	// 0 = unbounded). With DataDir set the cap is persisted in the
	// checkpoint and survives restarts even if the flag is dropped.
	TrustCap int

	// backendOpts go to the data dir's log: set only by tests, to inject
	// storage faults under it.
	backendOpts []ledger.BackendOption
}

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
	dev     *Device
	seal    Sealer // rounds of one on dev, and the data dir's log
	tn      *transport.TCPNode
	tracker *AckTracker
	obs     events.Observer // merged user observer + tracker
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
	if cfg.Gamma < 0 || cfg.Gamma >= cfg.Nodes {
		return nil, fmt.Errorf("cluster: gamma %d out of range for %d nodes", cfg.Gamma, cfg.Nodes)
	}
	if cfg.TrustCap < 0 {
		return nil, fmt.Errorf("cluster: Config.TrustCap %d: cap must be non-negative", cfg.TrustCap)
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: Config.Plan: %w", err)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: Config.Retry: %w", err)
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
	h.seal.Device = func(identity.NodeID) (*Device, error) { return h.dev, nil }
	if cfg.Join {
		// No identity until placement: park on the bootstrap sentinel so
		// directory merges can't mistake a real member's entry for our
		// own.
		h.id = wire.BootstrapID
	}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	if err := h.start(); err != nil {
		// Nothing of a failed start outlives it: no verb context, no
		// node on the port, no handle on the data dir.
		if h.dev != nil {
			_ = h.dev.Close()
		}
		_ = h.seal.Close()
		h.cancel()
		return nil, err
	}
	return h, nil
}

// start registers the planned world, discovers the cluster, places
// this device, brings it up and announces it.
func (h *Host) start() error {
	cfg := h.cfg
	for _, id := range h.topo.Nodes() {
		kp := identity.Deterministic(id, cfg.Seed)
		if err := h.ring.Register(kp.ID, kp.Public); err != nil {
			return fmt.Errorf("cluster: %w", err)
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
			return fmt.Errorf("cluster: discovering via %s: %w", cfg.JoinAddr, err)
		}
		entries, err := reply.DecodePeerListPayload()
		if err != nil {
			return fmt.Errorf("cluster: bad directory from %s: %w", cfg.JoinAddr, err)
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
			_, err = h.memberLocked(pl)
		}
		h.id, h.anchor, h.pos = pl.ID, pl.Anchor, pl.Pos
		h.mu.Unlock()
		if err != nil {
			return err
		}
	} else {
		h.pos, _ = h.topo.Position(h.id)
	}

	if err := h.startNode(); err != nil {
		return err
	}
	return h.announceSelf()
}

// startNode brings up the transport and the device on it.
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

	if err := h.seal.Open(h.cfg.DataDir, []identity.NodeID{h.id}, h.cfg.Observer, h.cfg.backendOpts); err != nil {
		tn.Close()
		return err
	}
	params := block.DefaultParams()
	params.Difficulty = pow.Difficulty(h.cfg.Difficulty)
	h.obs = events.Multi(h.cfg.Observer, h.tracker)
	h.dev, err = h.seal.NewDevice(DeviceConfig{
		Node: node.Config{
			Key:            identity.Deterministic(h.id, h.cfg.Seed),
			Params:         params,
			Topo:           h.topo,
			Ring:           h.ring,
			Gamma:          h.cfg.Gamma,
			RequestTimeout: h.cfg.RequestTimeout,
			Retry:          h.cfg.Retry,
			Observer:       h.obs,
			Control:        h.onControl,
			TrustCap:       h.cfg.TrustCap,
			AnnounceAcks:   true,
		},
		Endpoint: tn,
		Plan:     h.cfg.Plan,
		Clock:    h.slot.Load,
	})
	if err != nil {
		return err
	}
	if err := h.seal.Compact(); err != nil {
		return err
	}
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
		resp, err = h.dev.node.Call(h.ctx, peer, func(corr, nonce uint64) *wire.Message {
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

// memberLocked returns pl.ID's directory entry, admitting an unknown
// device as the dynamic joiner pl places: into the topology, the key
// ring — identities are deterministic, so the key derives from the
// seed rather than trusting carried bytes — and the directory. A
// placement that names no anchor claims planned membership in a
// different world and is refused, as is one the topology refuses.
// Callers hold h.mu.
func (h *Host) memberLocked(pl Placement) (*member, error) {
	if m, ok := h.members[pl.ID]; ok {
		return m, nil
	}
	if pl.Anchor == wire.NoAnchor {
		return nil, fmt.Errorf("cluster: %v is neither planned nor a joiner", pl.ID)
	}
	if err := pl.Apply(h.topo); err != nil {
		return nil, err
	}
	kp := identity.Deterministic(pl.ID, h.cfg.Seed)
	_ = h.ring.Register(kp.ID, kp.Public)
	m := &member{anchor: pl.Anchor}
	h.members[pl.ID] = m
	h.ids = append(h.ids, pl.ID)
	return m, nil
}

// merge folds a directory snapshot into local state: unknown dynamic
// joiners are replayed (memberLocked), and addresses and liveness are
// adopted.
func (h *Host) merge(entries []wire.PeerEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range entries {
		if e.ID == h.id {
			continue
		}
		m, err := h.memberLocked(Placement{ID: e.ID, Anchor: e.Anchor, Pos: topology.Point{X: e.X, Y: e.Y}})
		if err != nil {
			continue
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
// loop: Hello and Leave. A PeerList is read only as the reply to this
// host's own Hello; the node drops an unsolicited one.
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
		m, err := h.memberLocked(Placement{ID: from, Anchor: info.Anchor, Pos: topology.Point{X: info.X, Y: info.Y}})
		if err != nil {
			h.mu.Unlock()
			return
		}
		m.live = true
		if info.Addr != "" {
			m.addr = info.Addr
			h.tn.SetPeer(from, info.Addr)
		}
		h.mu.Unlock()
		// A node re-admitting itself clears any open circuit.
		h.dev.health.ReportSuccess(from)
		_ = h.dev.node.Send(h.ctx, from, wire.NewPeerList(msg, h.snapshot()))
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
	h.dev.health.Suspect(id)
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

// opCtx is a verb's context: ctx, canceled too when the host closes.
func (h *Host) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
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
// Seal is a Sealer round of one — SubmitBatch's seal stage: with a
// data dir the block is durable before any peer can read it, and a
// failed commit window publishes nothing and leaves its sequence
// number to the next Seal. Compaction runs inside the verb, so Close
// never races the backend away under it.
func (h *Host) Seal(data []byte) (block.Ref, digest.Digest, error) {
	if err := h.begin(); err != nil {
		return block.Ref{}, digest.Digest{}, err
	}
	defer h.wg.Done()
	refs, flush, err := h.seal.Seal([]Submission{{Node: h.id, Data: data}})
	if err != nil {
		return block.Ref{}, digest.Digest{}, err
	}
	return refs[0], flush[0].Digest, nil
}

// Compact forces a WAL compaction now (no-op without a data dir) —
// exposed so tests and operators can bound the replay tail on demand.
func (h *Host) Compact() error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.wg.Done()
	return h.seal.Compact()
}

// RecoveryReport returns what startup recovery read from the data dir;
// ok is false without one. A true TornTail means the previous run's
// final, never-acknowledged WAL record was discarded — worth a log
// line, never an error.
func (h *Host) RecoveryReport() (ledger.RecoveryReport, bool) {
	if h.dev.backend == nil {
		return ledger.RecoveryReport{}, false
	}
	return h.dev.backend.RecoveryReport(), true
}

// Latest returns the ref and digest of this node's newest sealed
// block. ok is false for an empty store — a fresh node, or one whose
// data dir held nothing.
func (h *Host) Latest() (ref block.Ref, d digest.Digest, ok bool) { return h.dev.Latest() }

// StateDigest returns a canonical digest over the node's whole ledger
// state (Device.StateDigest).
func (h *Host) StateDigest() digest.Digest { return h.dev.StateDigest() }

// Flush announces previously sealed digests (in seal order) to every
// radio neighbor and blocks until each live neighbor acknowledged
// every digest, via wire-level DigestAcks (AckTracker.Announce), or
// until the caller's deadline; without one, one request timeout.
func (h *Host) Flush(ctx context.Context, ds []digest.Digest) error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.wg.Done()
	flush := make([]Sealed, len(ds))
	for i, d := range ds {
		flush[i] = Sealed{Node: h.dev.node, Digest: d}
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.cfg.RequestTimeout)
		defer cancel()
	}
	actx, cancel := h.opCtx(ctx)
	defer cancel()
	return h.tracker.Announce(actx, flush, h.liveNeighbors, h.cfg.Retry, h.obs)
}

// Audit runs PoP from this node against ref. Only the caller's deadline
// and the host's closing bound it; each REQ_CHILD waits its own τ.
func (h *Host) Audit(ctx context.Context, ref block.Ref) (*core.Result, error) {
	if err := h.begin(); err != nil {
		return nil, err
	}
	defer h.wg.Done()
	actx, cancel := h.opCtx(ctx)
	defer cancel()
	return h.dev.node.Audit(actx, ref)
}

// Block fetches a block from this node's own store (read-only; with a
// data dir, read back from the segment once its body has moved there).
func (h *Host) Block(ref block.Ref) (*block.Block, error) {
	if ref.Node != h.id {
		return nil, fmt.Errorf("cluster: block %v is not local to %v", ref, h.id)
	}
	return h.dev.Block(ref.Seq)
}

// Close shuts the host down gracefully, in strict order: stop
// accepting verbs, cancel and drain every in-flight one (their retry
// loops are bounded by the policy cap and their contexts are dead),
// flush + fsync the data dir's log — every accepted block is on disk
// before any peer learns we are leaving — then broadcast Leave so peers
// mark this node dead immediately instead of waiting for their health
// trackers, and close the device — the node first, its RPC layer,
// transport and listener, then the backend (Device.Close) — and the log
// after it.
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
	var syncErr error
	if h.seal.Log != nil {
		syncErr = h.seal.Log.Sync()
	}
	lctx, lcancel := context.WithTimeout(context.Background(), h.cfg.RequestTimeout)
	for _, peer := range h.Live() {
		if peer == h.id {
			continue
		}
		_ = h.dev.node.Send(lctx, peer, wire.NewLeave(h.id, peer, h.dev.node.NextNonce()))
	}
	lcancel()
	return errors.Join(h.dev.Close(), h.seal.Close(), syncErr)
}
