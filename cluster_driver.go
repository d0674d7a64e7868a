package twoldag

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/cluster"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/node"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
)

// fabric abstracts the live driver's transport management so the
// cluster logic is identical over the in-memory network and TCP.
type fabric interface {
	// endpoint creates the transport for a (possibly joining) node.
	endpoint(id NodeID) (transport.Transport, error)
	// remove forgets a node after its transport closed.
	remove(id NodeID) error
	// close releases fabric-wide resources.
	close() error
}

// memFabric is the in-process message network.
type memFabric struct {
	net *transport.Network
}

func (f *memFabric) endpoint(id NodeID) (transport.Transport, error) { return f.net.Endpoint(id) }
func (f *memFabric) remove(id NodeID) error                          { return f.net.Remove(id) }
func (f *memFabric) close() error                                    { return f.net.Close() }

// tcpFabric runs each node on its own loopback TCP listener and keeps
// every directory up to date as nodes join.
type tcpFabric struct {
	mu    sync.Mutex
	nodes map[NodeID]*transport.TCPNode
}

func (f *tcpFabric) endpoint(id NodeID) (transport.Transport, error) {
	t, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.nodes[id]; dup {
		t.Close()
		return nil, fmt.Errorf("%w: %v", transport.ErrDuplicatePeer, id)
	}
	for peer, pt := range f.nodes {
		t.SetPeer(peer, pt.Addr())
		pt.SetPeer(id, t.Addr())
	}
	f.nodes[id] = t
	return t, nil
}

func (f *tcpFabric) remove(id NodeID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[id]; !ok {
		return fmt.Errorf("%w: %v", transport.ErrUnknownPeer, id)
	}
	// The node closed its own transport (listener and connections);
	// peers' stale dial entries fail on use, like a dead radio.
	delete(f.nodes, id)
	return nil
}

func (f *tcpFabric) close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for id, t := range f.nodes {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
		delete(f.nodes, id)
	}
	return first
}

// Cluster is the live Runtime driver: one node runtime per IoT device
// exchanging real wire messages over the in-memory fabric or TCP.
type Cluster struct {
	topo    *topology.Graph
	ring    *identity.Ring
	fab     fabric
	nodes   map[NodeID]*node.Node
	ids     []NodeID
	slot    atomic.Uint32
	params  block.Params
	seed    int64
	gamma   int
	rto     time.Duration
	workers int
	tracker *cluster.AckTracker
	obs     Observer // user observers (may be nil); tracker added per node
	plan    faults.Plan
	retry   faults.RetryPolicy

	// Durability (WithDataDir): one log for the whole data dir, which
	// every device writes to (dataDir/wal.log), and one FileBackend per
	// running device on it for that device's snapshot under
	// dataDir/node-<id> — kept so Silence can snapshot + close it and
	// Restart can recover from it. The log is folded into the devices'
	// snapshots once any of them has sealed compactEvery blocks into its
	// current generation (see maybeCompact).
	dataDir      string
	trustCap     int
	compactEvery int
	sync         SyncPolicy
	log          *ledger.Log
	backends     map[NodeID]*ledger.FileBackend
}

var _ Runtime = (*Cluster)(nil)

// newCluster builds and starts the live driver: keys, transports and
// one node runtime per device of the resolved topology.
func newCluster(cfg *config, g *topology.Graph) (*Cluster, error) {
	c := &Cluster{
		topo:    g,
		nodes:   make(map[NodeID]*node.Node, g.Len()),
		ids:     g.Nodes(),
		params:  cfg.params,
		seed:    cfg.seed,
		gamma:   cfg.gamma,
		rto:     cfg.rto,
		workers: cfg.workers,
		tracker: cluster.NewAckTracker(),
		obs:     events.Multi(cfg.observers...),
		plan:    cfg.faultPlan,
		retry:   cfg.retry,

		dataDir:      cfg.dataDir,
		trustCap:     cfg.trustCap,
		compactEvery: cfg.compactEvery,
		sync:         cfg.syncPolicy,
		backends:     make(map[NodeID]*ledger.FileBackend),
	}
	if c.compactEvery <= 0 {
		c.compactEvery = cluster.DefaultCompactEvery
	}
	switch cfg.transport {
	case TCP:
		c.fab = &tcpFabric{nodes: make(map[NodeID]*transport.TCPNode)}
	default:
		c.fab = &memFabric{net: transport.NewNetwork()}
	}
	var pairs []identity.KeyPair
	for _, id := range c.ids {
		pairs = append(pairs, identity.Deterministic(id, cfg.seed))
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		return nil, fmt.Errorf("twoldag: %w", err)
	}
	c.ring = ring
	if err := c.start(cfg, pairs); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// start opens the data dir's log, if there is to be one, and brings
// every device up on it.
func (c *Cluster) start(cfg *config, pairs []identity.KeyPair) error {
	if c.dataDir != "" {
		bopts := append([]ledger.BackendOption{ledger.WithSyncPolicy(c.sync)}, cfg.backendOpts...)
		if co := commitObservers(cfg.observers); co != nil {
			bopts = append(bopts, ledger.WithCommitObserver(co))
		}
		var err error
		if c.log, err = ledger.OpenLog(c.dataDir, bopts...); err != nil {
			return fmt.Errorf("twoldag: %w", err)
		}
	}
	for _, kp := range pairs {
		if err := c.startNode(kp); err != nil {
			return err
		}
	}
	if c.log == nil {
		return nil
	}
	// Every device has recovered: fold what the log held into fresh
	// snapshots, so a crash loop cannot grow an unbounded replay tail.
	return c.compact()
}

// startNode creates the transport and runtime for one device. A start
// that fails leaves nothing behind — no endpoint on the fabric, no open
// backend — so the caller can retry it.
func (c *Cluster) startNode(kp identity.KeyPair) (err error) {
	ep, err := c.fab.endpoint(kp.ID)
	if err != nil {
		return fmt.Errorf("twoldag: %w", err)
	}
	var fb *ledger.FileBackend
	defer func() {
		if err != nil {
			if fb != nil {
				_ = fb.Close()
			}
			_ = ep.Close()
			_ = c.fab.remove(kp.ID)
		}
	}()
	// User observers run before the tracker: the tracker's ack is
	// what unblocks a waiting Submit/SubmitBatch, so ordering it
	// last guarantees every user observer has already seen a
	// delivery by the time the submitter returns.
	obs := events.Multi(c.obs, c.tracker)
	if tn, ok := ep.(*transport.TCPNode); ok {
		// TCP cannot report receiver-side backpressure to the sender;
		// surface each inbound inbox-full loss as a MessageDropped.
		self := kp.ID
		tn.SetDropHandler(func(env transport.Envelope) {
			if obs != nil {
				obs.OnMessageDropped(events.MessageDropped{
					From: env.From, To: self, Kind: uint8(env.Msg.Kind),
					Reason: events.DropBackpressure,
				})
			}
		})
	}
	tr := transport.Transport(ep)
	if c.plan.Active() {
		slot := &c.slot
		tr = faults.Wrap(ep, c.plan, func() uint32 { return slot.Load() }, obs)
	}
	var state *ledger.NodeState
	var backend ledger.Backend
	if c.log != nil {
		fb, err = c.log.OpenBackend(filepath.Join(c.dataDir, fmt.Sprintf("node-%d", kp.ID)))
		if err != nil {
			return fmt.Errorf("twoldag: node %v: %w", kp.ID, err)
		}
		state, err = fb.Recover(ledger.RecoverOptions{
			Owner:    kp.ID,
			Params:   c.params,
			Ring:     c.ring,
			TrustCap: c.trustCap,
		})
		if err != nil {
			return fmt.Errorf("twoldag: recovering node %v: %w", kp.ID, err)
		}
		backend = fb
	}
	n, err := node.New(node.Config{
		Key:            kp,
		Params:         c.params,
		Topo:           c.topo,
		Ring:           c.ring,
		Transport:      tr,
		Gamma:          c.gamma,
		RequestTimeout: c.rto,
		Retry:          c.retry,
		Health:         faults.NewHealth(kp.ID, 0, obs),
		Observer:       obs,
		State:          state,
		TrustCap:       c.trustCap,
		Backend:        backend,
	})
	if err != nil {
		return fmt.Errorf("twoldag: starting node %v: %w", kp.ID, err)
	}
	slot := &c.slot
	n.SetClock(func() uint32 { return slot.Load() })
	c.nodes[kp.ID] = n
	if fb != nil {
		c.backends[kp.ID] = fb
	}
	return nil
}

// Nodes implements Runtime.
func (c *Cluster) Nodes() []NodeID {
	return append([]NodeID(nil), c.ids...)
}

// Topology implements Runtime.
func (c *Cluster) Topology() *Topology { return c.topo }

// AdvanceSlot implements Runtime.
func (c *Cluster) AdvanceSlot() { c.slot.Add(1) }

// Slot implements Runtime.
func (c *Cluster) Slot() uint32 { return c.slot.Load() }

// liveNeighbors returns id's radio neighbors that still run a node.
func (c *Cluster) liveNeighbors(id NodeID) []NodeID {
	nbs := c.topo.Neighbors(id)
	out := nbs[:0]
	for _, nb := range nbs {
		if _, ok := c.nodes[nb]; ok {
			out = append(out, nb)
		}
	}
	return out
}

// maybeCompact folds the data dir's log into fresh snapshots of every
// running device once one of them has the threshold of block records
// in the current generation — mirroring cluster.Host's seal path, so a
// long-lived facade run bounds wal.log growth and the recovery replay
// tail instead of accumulating every block since start. Runs on the
// submitting goroutine between a round's appends and the next round's
// seals, so no block is staged but unpublished while the log rotates.
func (c *Cluster) maybeCompact() {
	if c.log != nil && c.log.PendingBlocks() >= c.compactEvery {
		// Not lost: the log keeps a failure as its sticky error, which
		// Close reports, and the next trigger retries.
		_ = c.compact()
	}
}

// compact rotates the log once, snapshots every running device and
// drops the rotated generation (ledger.Log.Compact).
func (c *Cluster) compact() error {
	return c.log.Compact(func(id NodeID) (*ledger.NodeState, error) {
		n, ok := c.nodes[id]
		if !ok {
			return nil, fmt.Errorf("twoldag: node %v has an open backend but does not run", id)
		}
		return n.Engine().State(), nil
	})
}

// ackCtx bounds an acknowledgement wait: the caller's deadline rules
// when present; otherwise the configured request timeout applies.
func (c *Cluster) ackCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.rto)
}

// awaitAck blocks until every expected neighbor acknowledged d.
func (c *Cluster) awaitAck(ctx context.Context, origin NodeID, d Digest, w *cluster.Waiter) error {
	return c.tracker.Await(ctx, origin, d, w)
}

// awaitAckRetry is awaitAck with the configured retry policy: each
// missing acknowledgement re-sends the digest — only to the neighbors
// still pending, as a singleton frame — after an exponential backoff,
// up to MaxAttempts total announcement rounds. Retries are ack-driven,
// never blind: a loss-free run sends exactly one frame per link and
// takes the plain awaitAck path.
func (c *Cluster) awaitAckRetry(ctx context.Context, n *node.Node, d Digest, w *cluster.Waiter) error {
	return c.tracker.AwaitRetry(ctx, n.ID(), d, w, c.retry, c.obs, func(ctx context.Context, nb NodeID, d Digest) {
		n.AnnounceTo(ctx, nb, d)
	})
}

// commitObservers collects the user observers that also implement
// ledger.CommitObserver (e.g. *metrics.EventCounters), so WAL commit
// windows surface on the same scrape as the event counters.
func commitObservers(obs []Observer) ledger.CommitObserver {
	var cos multiCommitObserver
	for _, o := range obs {
		if co, ok := o.(ledger.CommitObserver); ok {
			cos = append(cos, co)
		}
	}
	switch len(cos) {
	case 0:
		return nil
	case 1:
		return cos[0]
	default:
		return cos
	}
}

type multiCommitObserver []ledger.CommitObserver

func (m multiCommitObserver) OnWALCommit(blocks int, bytes int64) {
	for _, o := range m {
		o.OnWALCommit(blocks, bytes)
	}
}

// Submit implements Runtime: seal, announce, and wait for every live
// neighbor's acknowledgement (event-driven — see cluster.AckTracker).
// It is SubmitBatch of one block.
func (c *Cluster) Submit(ctx context.Context, id NodeID, data []byte) (Ref, error) {
	refs, err := c.SubmitBatch(ctx, []Submission{{Node: id, Data: data}})
	if len(refs) == 0 {
		return Ref{}, err
	}
	return refs[0], err
}

// SubmitBatch implements Runtime: all blocks are sealed first, then
// the announcements flush receiver-centrically — every sender
// coalesces its digests into one DigestBatch frame per neighbor, so
// the fabric carries one frame per (sender, receiver) pair per batch
// instead of one per sealed block — and the acknowledgements are
// awaited together, amortizing the wait over the whole slot.
//
// The seal stage runs before anything of the batch is on the wire, in
// rounds: round r is the r-th block of every owner in the batch, so a
// normal slot — one block per device — is one round. A round's blocks
// are mined and signed side by side like real devices', on at most
// WithWorkers goroutines (with one, on the caller in batch order), and
// on a durable deployment each stages its record in the data dir's log
// as it is sealed. Then the round's one commit window closes — one
// fsync whatever the device count, under SyncAlways and SyncBatch alike
// (SyncInterval leaves it to the ticker) — and only then are the blocks
// appended to their S_i and BlockSealed fired, on the caller, in owner
// order: durable before anything can see them, and the number of
// windows a function of the batch alone. A window that does not close
// is a seal failure of every block in it: none is appended or counted,
// store and log still agree, and the next batch seals the same
// sequence numbers again. The log compacts, when due, between rounds.
// Everything after the seal stage — ack registration, announcements,
// ack waits — runs on the caller in batch order.
func (c *Cluster) SubmitBatch(ctx context.Context, batch []Submission) ([]Ref, error) {
	// Group the batch per owner, resolving every owner before anything
	// is sealed: an unknown node fails the call without leaving sealed,
	// never-announced blocks behind on the devices ahead of it.
	type owner struct {
		n    *node.Node
		subs []int // indexes into batch, ascending
	}
	var owners []owner
	ownerOf := make(map[NodeID]int, len(batch))
	for i, sub := range batch {
		o, seen := ownerOf[sub.Node]
		if !seen {
			n, ok := c.nodes[sub.Node]
			if !ok {
				return nil, fmt.Errorf("twoldag: unknown node %v", sub.Node)
			}
			o = len(owners)
			ownerOf[sub.Node] = o
			owners = append(owners, owner{n: n})
		}
		owners[o].subs = append(owners[o].subs, i)
	}

	type flush struct {
		n *node.Node
		d Digest
		w *cluster.Waiter
	}
	refs := make([]Ref, len(batch))
	flushes := make([]flush, len(batch))
	// failed is the lowest batch index whose seal failed and sealErr its
	// error. No worker starts a block beyond failed; blocks before it
	// are still sealed, in later rounds too, so the refs returned are
	// exactly those of batch[:failed] whatever the interleaving.
	var (
		failed  atomic.Int64
		mu      sync.Mutex // orders the writers of failed and sealErr
		sealErr error
	)
	failed.Store(int64(len(batch)))
	fail := func(i int, err error) {
		mu.Lock()
		if int64(i) < failed.Load() {
			failed.Store(int64(i))
			sealErr = err
		}
		mu.Unlock()
	}
	type sealing struct {
		n *node.Node
		i int // index into batch
		b *Block
	}
	var round []sealing
	for r := 0; ; r++ {
		round = round[:0]
		for _, o := range owners {
			if r < len(o.subs) && int64(o.subs[r]) < failed.Load() {
				round = append(round, sealing{n: o.n, i: o.subs[r]})
			}
		}
		if len(round) == 0 {
			break
		}
		fanOut(len(round), c.workers, func(k int) {
			s := &round[k]
			if int64(s.i) > failed.Load() {
				return
			}
			b, err := s.n.SealLocal(batch[s.i].Data)
			if err != nil {
				fail(s.i, err)
				return
			}
			s.b = b
		})
		var werr error
		if c.log != nil && c.sync.Every() == 0 {
			werr = c.log.Commit()
		}
		for _, s := range round {
			if s.b == nil {
				continue
			}
			if werr != nil {
				fail(s.i, werr)
				continue
			}
			d, err := s.n.PublishLocal(s.b)
			if err != nil {
				fail(s.i, err)
				continue
			}
			refs[s.i] = s.b.Header.Ref()
			flushes[s.i] = flush{n: s.n, d: d}
		}
		c.maybeCompact()
	}
	if f := failed.Load(); f < int64(len(batch)) {
		return refs[:f], sealErr
	}

	for i := range flushes {
		f := &flushes[i]
		f.w = c.tracker.Expect(f.d, c.liveNeighbors(f.n.ID()))
	}
	abort := func(err error) ([]Ref, error) {
		for _, f := range flushes {
			c.tracker.Cancel(f.d)
		}
		return refs, err
	}
	actx, cancel := c.ackCtx(ctx)
	defer cancel()
	// One coalesced announcement per sender, in seal order so the
	// receiver's A_i ends on the newest digest.
	for _, o := range owners {
		ds := make([]Digest, len(o.subs))
		for k, i := range o.subs {
			ds[k] = flushes[i].d
		}
		o.n.AnnounceBatch(actx, ds)
	}
	if c.retry.Enabled() {
		// Await concurrently so every flush's retry clock runs at once;
		// sequential waits would serialize the backoffs.
		errs := make([]error, len(flushes))
		var wg sync.WaitGroup
		for i, f := range flushes {
			wg.Add(1)
			go func(i int, f flush) {
				defer wg.Done()
				errs[i] = c.awaitAckRetry(actx, f.n, f.d, f.w)
			}(i, f)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return abort(err)
			}
		}
		return refs, nil
	}
	for _, f := range flushes {
		if err := c.awaitAck(actx, f.n.ID(), f.d, f.w); err != nil {
			return abort(err)
		}
	}
	return refs, nil
}

// Audit implements Runtime.
func (c *Cluster) Audit(ctx context.Context, validator NodeID, ref Ref) (*AuditResult, error) {
	n, ok := c.nodes[validator]
	if !ok {
		return nil, fmt.Errorf("twoldag: unknown validator %v", validator)
	}
	return n.Audit(ctx, ref)
}

// AuditMany implements Runtime: audits fan out over a worker pool
// bounded by WithWorkers. A node's one PoP validator holds only
// configuration, builds each audit's state afresh and reads shared
// state that locks for itself (core.Validator), so any mix of
// validators — the same one several times included — may run
// concurrently.
func (c *Cluster) AuditMany(ctx context.Context, reqs []AuditRequest) []AuditOutcome {
	out := make([]AuditOutcome, len(reqs))
	fanOut(len(reqs), c.workers, func(i int) {
		r := reqs[i]
		res, err := c.Audit(ctx, r.Validator, r.Ref)
		out[i] = AuditOutcome{Request: r, Result: res, Err: err}
	})
	return out
}

// Block implements Runtime. The returned block is shared, sealed
// store state — treat it as read-only and Clone it before mutating.
func (c *Cluster) Block(ref Ref) (*Block, error) {
	n, ok := c.nodes[ref.Node]
	if !ok {
		return nil, fmt.Errorf("twoldag: unknown node %v", ref.Node)
	}
	return n.Engine().Store().Get(ref.Seq)
}

// ProveSample builds an inclusion proof for the i-th body chunk of the
// given block.
func (c *Cluster) ProveSample(ref Ref, leafIndex int) (*SampleProof, error) {
	b, err := c.Block(ref)
	if err != nil {
		return nil, err
	}
	return c.params.ProveSample(b, leafIndex)
}

// VerifySample checks a sample proof against the header established by
// a successful audit of the same block.
func (c *Cluster) VerifySample(res *AuditResult, sp *SampleProof) error {
	if !res.Consensus || len(res.Path) == 0 {
		return fmt.Errorf("twoldag: audit of %v did not reach consensus", res.Target)
	}
	return c.params.VerifySample(res.Path[0].Header, sp)
}

// Join implements Runtime (the paper's Sec. VII dynamic-membership
// extension): the new device is placed within radio range of the
// newest live device, registered in the key ring, and starts serving
// immediately.
func (c *Cluster) Join() (NodeID, error) {
	id, err := placeJoiner(c.topo, c.ids, func(id NodeID) bool {
		_, ok := c.nodes[id]
		return ok
	})
	if err != nil {
		return 0, err
	}
	kp := identity.Deterministic(id, c.seed)
	if err := c.ring.Register(kp.ID, kp.Public); err != nil {
		return 0, fmt.Errorf("twoldag: registering joiner: %w", err)
	}
	if err := c.startNode(kp); err != nil {
		return 0, fmt.Errorf("twoldag: joiner: %w", err)
	}
	c.ids = append(c.ids, id)
	return id, nil
}

// Silence implements Runtime: the device's transport closes, and
// subsequent audits must route around it, as in the paper's
// malicious-node experiments. With WithDataDir, the node's whole state
// is written to its own snapshot and its backend closed — everything
// the node accepted before going silent is on disk, and Restart can
// bring it back from exactly that state. The snapshot is what keeps
// that true while the others run on: a silent device has no state in
// memory for the next compaction to gather, and the compaction lets go
// of the log generations that held its records.
func (c *Cluster) Silence(id NodeID) error {
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("twoldag: unknown node %v", id)
	}
	delete(c.nodes, id)
	err := n.Close()
	if fb, ok := c.backends[id]; ok {
		delete(c.backends, id)
		serr := fb.Compact(func() (*ledger.NodeState, error) { return n.Engine().State(), nil })
		if serr != nil && err == nil {
			err = serr
		}
		if cerr := fb.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if rerr := c.fab.remove(id); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// Restart brings a silenced (or crashed) device back from its data
// dir: its backend reopens, the whole ledger state recovers from its
// snapshot + its records in the data dir's log, and the node serves
// again under the same identity. Requires WithDataDir; the device must
// not be running. The restarted node's A_i, H_i and S_i are exactly
// what was durable at silence time — the caller re-flushes its latest
// digest if neighbors were ahead of the crash point. A Restart that
// fails (a damaged snapshot, say) leaves the device as it was, silent,
// and can be repeated once the dir is repaired.
func (c *Cluster) Restart(id NodeID) error {
	if c.dataDir == "" {
		return fmt.Errorf("twoldag: Restart(%v) requires WithDataDir", id)
	}
	if _, running := c.nodes[id]; running {
		return fmt.Errorf("twoldag: node %v is still running", id)
	}
	known := false
	for _, kid := range c.ids {
		if kid == id {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("twoldag: unknown node %v", id)
	}
	return c.startNode(identity.Deterministic(id, c.seed))
}

// StateDigest returns a canonical digest over a node's whole ledger
// state — the snapshot-v2 serialization of (S_i, H_i, A_i, trust cap)
// — for byte-identity checks across crash/recovery boundaries.
func (c *Cluster) StateDigest(id NodeID) (Digest, error) {
	n, ok := c.nodes[id]
	if !ok {
		return Digest{}, fmt.Errorf("twoldag: unknown node %v", id)
	}
	var buf bytes.Buffer
	if err := n.Engine().State().WriteSnapshot(&buf); err != nil {
		return Digest{}, err
	}
	return digest.Sum(buf.Bytes()), nil
}

// Close implements Runtime: every node stops, the log flushes and
// closes with every backend on it, then the fabric.
func (c *Cluster) Close() error {
	var first error
	for id, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.nodes, id)
	}
	if c.log != nil {
		if err := c.log.Close(); err != nil && first == nil {
			first = err
		}
		c.log, c.backends = nil, map[NodeID]*ledger.FileBackend{}
	}
	if err := c.fab.close(); err != nil && first == nil {
		first = err
	}
	return first
}
