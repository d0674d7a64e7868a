package twoldag

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/cluster"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
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

// close has nothing to release: each node's transport belongs to its
// device, which closes it.
func (f *tcpFabric) close() error { return nil }

// Cluster is the live Runtime driver: one device (cluster.Device) per
// IoT device, exchanging real wire messages over the in-memory fabric
// or TCP.
type Cluster struct {
	topo    *topology.Graph
	ring    *identity.Ring
	fab     fabric
	devs    map[NodeID]*cluster.Device // running devices
	ids     []NodeID
	slot    atomic.Uint32
	params  block.Params
	seed    int64
	gamma   int
	rto     time.Duration
	tracker *cluster.AckTracker
	obs     Observer // user observers (may be nil); tracker added per node
	plan    faults.Plan
	retry   faults.RetryPolicy

	// vcache is the one header-verification cache every device of the
	// cluster uses (node.Config.VerifyCache), so a header one device has
	// verified is not verified again by the next. That is sound because
	// a cluster is a single (Params, Ring) pair for its whole life:
	// every device runs params, and ring only gains keys — Join
	// registers one, and Deregister runs only for a Join whose device
	// never started, so no header under that key was ever verified.
	vcache *block.VerifyCache

	// Durability (WithDataDir): the sealer opens one log for the whole
	// data dir, which every device writes to, and per device a backend
	// on it for that device's segment and checkpoint (cluster.Sealer).
	// Its Log is nil without a data dir.
	trustCap int
	seal     cluster.Sealer
}

var _ Runtime = (*Cluster)(nil)

// newCluster builds and starts the live driver: keys, transports and
// one device per node of the resolved topology.
func newCluster(cfg *config, g *topology.Graph) (*Cluster, error) {
	c := &Cluster{
		topo:    g,
		vcache:  block.NewVerifyCache(),
		devs:    make(map[NodeID]*cluster.Device, g.Len()),
		ids:     g.Nodes(),
		params:  cfg.params,
		seed:    cfg.seed,
		gamma:   cfg.gamma,
		rto:     cfg.rto,
		tracker: cluster.NewAckTracker(),
		obs:     events.Multi(cfg.observers...),
		plan:    cfg.faultPlan,
		retry:   cfg.retry,

		trustCap: cfg.trustCap,
	}
	c.seal = cluster.Sealer{Device: c.device}
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

// start opens the data dir's log, if there is to be one, for the
// topology's devices (cluster.Sealer.Open), brings every device up on
// it, and compacts it once all have recovered.
func (c *Cluster) start(cfg *config, pairs []identity.KeyPair) error {
	if err := c.seal.Open(cfg.dataDir, c.ids, c.obs, cfg.backendOpts); err != nil {
		return fmt.Errorf("twoldag: %w", err)
	}
	for _, kp := range pairs {
		if err := c.startNode(kp); err != nil {
			return err
		}
	}
	if err := c.seal.Compact(); err != nil {
		return fmt.Errorf("twoldag: %w", err)
	}
	return nil
}

// startNode creates the transport and device for one node. A start
// that fails leaves nothing behind — no endpoint on the fabric, no open
// backend — so the caller can retry it.
func (c *Cluster) startNode(kp identity.KeyPair) error {
	ep, err := c.fab.endpoint(kp.ID)
	if err != nil {
		return fmt.Errorf("twoldag: %w", err)
	}
	d, err := c.seal.NewDevice(cluster.DeviceConfig{
		Node: node.Config{
			Key:            kp,
			Params:         c.params,
			Topo:           c.topo,
			Ring:           c.ring,
			Gamma:          c.gamma,
			RequestTimeout: c.rto,
			Retry:          c.retry,
			Observer:       events.Multi(c.obs, c.tracker),
			TrustCap:       c.trustCap,
			VerifyCache:    c.vcache,
		},
		Endpoint: ep,
		Plan:     c.plan,
		Clock:    c.slot.Load,
	})
	if err != nil {
		_ = c.fab.remove(kp.ID)
		return fmt.Errorf("twoldag: %w", err)
	}
	c.devs[kp.ID] = d
	return nil
}

// device returns the running device id.
func (c *Cluster) device(id NodeID) (*cluster.Device, error) {
	d, ok := c.devs[id]
	if !ok {
		return nil, fmt.Errorf("twoldag: unknown node %v", id)
	}
	return d, nil
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
		if _, ok := c.devs[nb]; ok {
			out = append(out, nb)
		}
	}
	return out
}

// ackCtx bounds an acknowledgement wait: the caller's deadline rules
// when present; otherwise the configured request timeout applies.
func (c *Cluster) ackCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.rto)
}

// Submit implements Runtime: seal, announce, and wait for every live
// neighbor's acknowledgement (event-driven — see cluster.AckTracker).
// It is SubmitBatch of one block.
func (c *Cluster) Submit(ctx context.Context, id NodeID, data []byte) (Ref, error) {
	return submitOne(ctx, c, id, data)
}

// SubmitBatch implements Runtime: cluster.Sealer seals the batch in
// rounds, as a cluster.Host seals each block, and then, as
// cluster.Host.Flush does, cluster.AckTracker.Announce sends each
// sender's digests as one DigestBatch frame per neighbor and awaits
// the acknowledgements together.
func (c *Cluster) SubmitBatch(ctx context.Context, batch []Submission) ([]Ref, error) {
	refs, flush, err := c.seal.Seal(batch)
	if err != nil {
		return refs, err
	}
	actx, cancel := c.ackCtx(ctx)
	defer cancel()
	return refs, c.tracker.Announce(actx, flush, c.liveNeighbors, c.retry, c.obs)
}

// Audit implements Runtime.
func (c *Cluster) Audit(ctx context.Context, validator NodeID, ref Ref) (*AuditResult, error) {
	d, ok := c.devs[validator]
	if !ok {
		return nil, fmt.Errorf("twoldag: unknown validator %v", validator)
	}
	return d.Node().Audit(ctx, ref)
}

// AuditMany implements Runtime: audits fan out over GOMAXPROCS
// goroutines. A node's one PoP validator holds only
// configuration, builds each audit's state afresh and reads shared
// state that locks for itself (core.Validator), so any mix of
// validators — the same one several times included — may run
// concurrently.
func (c *Cluster) AuditMany(ctx context.Context, reqs []AuditRequest) []AuditOutcome {
	return auditMany(ctx, c, reqs)
}

// Block implements Runtime. The returned block is shared store state,
// or — once the commit window that logged it has fsynced, on a durable
// cluster — a fresh block decoded from its record in the log or its
// owner's segment, header and body both (ledger.Store.Get), which fails
// once the file's handle has closed. Treat it as read-only either way
// and Clone it before mutating.
func (c *Cluster) Block(ref Ref) (*Block, error) {
	d, err := c.device(ref.Node)
	if err != nil {
		return nil, err
	}
	return d.Block(ref.Seq)
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
// immediately. A Join that fails (a damaged data dir, say) takes the
// placement and the ring entry back, so no neighbor keeps a phantom
// device in its Δ or announces to it, and the retry gets the same ID.
func (c *Cluster) Join() (NodeID, error) {
	id, err := cluster.PlaceJoiner(c.topo, c.ids, func(id NodeID) bool {
		_, ok := c.devs[id]
		return ok
	})
	if err != nil {
		return 0, fmt.Errorf("twoldag: %w", err)
	}
	kp := identity.Deterministic(id, c.seed)
	if err = c.ring.Register(kp.ID, kp.Public); err != nil {
		err = fmt.Errorf("twoldag: registering joiner: %w", err)
	} else if err = c.startNode(kp); err != nil {
		_ = c.ring.Deregister(id)
		err = fmt.Errorf("twoldag: joiner: %w", err)
	}
	if err != nil {
		_ = c.topo.RemoveNode(id)
		return 0, err
	}
	c.ids = append(c.ids, id)
	return id, nil
}

// Silence implements Runtime: the device's transport closes, and
// subsequent audits must route around it, as in the paper's
// malicious-node experiments. With WithDataDir, the node's whole state
// is committed to its own segment and checkpoint and its backend
// closed — everything the node accepted before going silent is on
// disk, and Restart can bring it back from exactly that state. The
// checkpoint is what keeps that true while the others run on: a silent
// device has no state in memory for the next compaction to gather, and
// the compaction lets go of the log generations that held its records.
// The blocks it sealed since the last compaction are appended to its
// segment; the older ones are there already, so a device with nothing
// new writes its checkpoint alone.
func (c *Cluster) Silence(id NodeID) error {
	d, err := c.device(id)
	if err != nil {
		return err
	}
	delete(c.devs, id)
	// The node stops first, so nothing it logs can land behind the
	// checkpoint; then the state it held goes to the checkpoint, and
	// the backend closes.
	return errors.Join(d.Node().Close(), d.Checkpoint(), d.Close(), c.fab.remove(id))
}

// Restart brings a silenced (or crashed) device back from its data
// dir: its backend reopens, the whole ledger state recovers from its
// checkpoint and segment + its records in the data dir's log, and the
// node serves again under the same identity. Requires WithDataDir; the
// device must not be running. The restarted node's A_i, H_i and S_i
// are exactly what was durable at silence time — the caller re-flushes
// its latest digest if neighbors were ahead of the crash point. A
// Restart that fails (a damaged checkpoint, say) leaves the device as
// it was, silent, and can be repeated once the dir is repaired.
func (c *Cluster) Restart(id NodeID) error {
	if c.seal.Log == nil {
		return fmt.Errorf("twoldag: Restart(%v) requires WithDataDir", id)
	}
	if _, running := c.devs[id]; running {
		return fmt.Errorf("twoldag: node %v is still running", id)
	}
	if !slices.Contains(c.ids, id) {
		return fmt.Errorf("twoldag: unknown node %v", id)
	}
	return c.startNode(identity.Deterministic(id, c.seed))
}

// StateDigest returns a canonical digest over a node's whole ledger
// state, for identity checks across crash/recovery boundaries
// (cluster.Device.StateDigest).
func (c *Cluster) StateDigest(id NodeID) (Digest, error) {
	d, err := c.device(id)
	if err != nil {
		return Digest{}, err
	}
	return d.StateDigest(), nil
}

// Close implements Runtime: every device closes — node, then backend
// — the log flushes and closes, then the fabric.
func (c *Cluster) Close() error {
	var first error
	for id, d := range c.devs {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.devs, id)
	}
	if err := c.seal.Close(); err != nil && first == nil {
		first = err
	}
	if err := c.fab.close(); err != nil && first == nil {
		first = err
	}
	return first
}
