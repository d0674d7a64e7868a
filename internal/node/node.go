// Package node is the live 2LDAG runtime: one Node per IoT device,
// combining the core engine (block generation, digest cache), the
// Algorithm 4 responder, a PoP validator and a transport. Nodes
// exchange real wire messages — digest announcements on generation
// (Sec. III-D), singly or coalesced into one DigestBatch frame per
// neighbor per flush (AnnounceBatch), REQ_CHILD/RPY_CHILD and block
// retrievals during PoP (Sec. IV) — over either the in-memory fabric
// or TCP.
//
// The runtime also enforces the receiver-side DoS defense of Sec.
// IV-D5: a neighbor announcing blocks faster than the proof-of-work
// difficulty plausibly allows is banned and its digests are discarded.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// Config assembles a node.
type Config struct {
	// Key is the node's signing identity.
	Key identity.KeyPair
	// Params are the shared consensus constants.
	Params block.Params
	// Topo is the shared physical topology.
	Topo *topology.Graph
	// Ring is the shared public-key registry.
	Ring *identity.Ring
	// Transport carries this node's traffic (ownership passes to the
	// node; Close closes it).
	Transport transport.Transport
	// Gamma is the PoP consensus threshold γ.
	Gamma int
	// RequestTimeout is τ for PoP requests (0 = transport default).
	RequestTimeout time.Duration
	// Strategy overrides WPS.
	Strategy core.SelectionStrategy
	// AnnounceWindow and AnnounceLimit bound per-neighbor digest
	// announcements: more than AnnounceLimit digests within
	// AnnounceWindow bans the sender (0 values disable the guard).
	AnnounceWindow time.Duration
	AnnounceLimit  int
	// Retry bounds re-transmission of PoP requests (REQ_CHILD,
	// GET_BLOCK): each failed call backs off and retries up to
	// Retry.MaxAttempts before the validator gives up on the peer. The
	// zero value disables retries — the baseline behavior, where one
	// timeout moves the validator to the next candidate.
	Retry faults.RetryPolicy
	// Health, when non-nil, is the node's per-peer circuit breaker:
	// transport failures feed it, audits route around peers it
	// suspects, and any later success re-admits them.
	Health *faults.Health
	// Observer, when non-nil, receives the node's typed event stream
	// (block seals, accepted digest deliveries, audit hops and
	// outcomes). Called from transport and audit goroutines — must be
	// safe for concurrent use and cheap.
	Observer events.Observer
	// Control, when non-nil, receives membership-plane frames (Hello,
	// PeerList pushes, Leave) that the data-plane node does not
	// interpret itself — the cluster host owning this node handles
	// directory state there. Runs on the dispatch goroutine; must not
	// block.
	Control func(transport.Envelope)
	// State, when non-nil, is the recovered ledger state
	// (snapshot + WAL replay) the node resumes from instead of empty
	// structures. Its store must be owned by Key.ID.
	State *ledger.NodeState
	// TrustCap, when > 0, bounds H_i (FIFO eviction). Applied on top
	// of any recovered state.
	TrustCap int
	// Backend, when non-nil, journals every ledger mutation for crash
	// recovery. The node attaches it after restoring State (recovery
	// is never re-journaled) but does not own it: the caller that
	// opened the backend syncs and closes it after node.Close.
	Backend ledger.Backend
	// AnnounceAcks switches delivery acknowledgement to the wire: each
	// ingested announcement (and each pure re-delivery, whose original
	// ack may have been lost) is answered with a DigestAck frame, and
	// incoming DigestAcks synthesize the receiver-side delivery events
	// on this node's observer. In-process clusters leave this off — the
	// receiver's own observer events reach the submitter's ack tracker
	// directly. Cross-process clusters need it: events don't cross
	// process boundaries.
	AnnounceAcks bool
}

// Node is a running 2LDAG participant.
type Node struct {
	cfg    Config
	engine *core.Engine
	rpc    *transport.RPC
	bl     *ledger.Blacklist

	// validator and fetcher serve every Audit: a Validator holds only
	// configuration and is safe for concurrent Verify calls, and the
	// fetcher is a stateless adapter over rpc.
	validator *core.Validator
	fetcher   rpcFetcher

	mu       sync.Mutex
	lastAnns map[identity.NodeID][]time.Time

	// batchFrom is the scratch sender column for DigestBatchDelivered
	// events on single-sender wire batches. It is only touched from
	// the RPC dispatch goroutine (handle runs serially), so no lock is
	// needed, and the event contract lets observers see it only for
	// the duration of the call.
	batchFrom []identity.NodeID

	// seen is the idempotent-receive guard: per sender, the recent
	// digests already ingested into A_i. A re-delivered digest —
	// a retry, an injected duplicate, a delayed copy arriving after
	// newer announcements — is discarded before the DoS guard charges
	// the sender and before the latest-wins cache could regress to a
	// stale entry. Like batchFrom it is only touched from the dispatch
	// goroutine, so no lock is needed.
	seen map[identity.NodeID]*seenRing

	slot func() uint32

	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// New builds and starts a node's message loop. The node serves
// responder traffic immediately.
func New(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("node: Config.Transport is required")
	}
	if cfg.Ring == nil {
		return nil, errors.New("node: Config.Ring is required")
	}
	engOpts := core.EngineOptions{TrustCap: cfg.TrustCap, Backend: cfg.Backend}
	if cfg.State != nil {
		engOpts.Store = cfg.State.Store
		engOpts.Trust = cfg.State.Trust
		engOpts.Cache = cfg.State.Cache
	}
	eng, err := core.NewEngineWith(cfg.Key, cfg.Params, cfg.Topo, engOpts)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n := &Node{
		cfg:      cfg,
		engine:   eng,
		bl:       ledger.NewBlacklist(0, 0),
		lastAnns: make(map[identity.NodeID][]time.Time),
		seen:     make(map[identity.NodeID]*seenRing),
		slot:     wallClockSlot,
	}
	n.validator, err = eng.Validator(cfg.Gamma, cfg.Ring, func(c *core.ValidatorConfig) {
		c.Strategy = cfg.Strategy
		c.Blacklist = n.bl
		if h := cfg.Health; h != nil {
			// Route around peers the circuit breaker suspects; the
			// filter is advisory (suspects remain last-resort
			// candidates, which doubles as the recovery probe).
			c.Avoid = h.Suspected
		}
	})
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n.fetcher = rpcFetcher{node: n}
	n.rpc = transport.NewRPC(cfg.Transport, n.handle, cfg.RequestTimeout)
	return n, nil
}

// wallClockSlot stamps blocks with Unix seconds.
func wallClockSlot() uint32 { return uint32(time.Now().Unix()) }

// SetClock overrides the block timestamp source (tests, simulations).
func (n *Node) SetClock(f func() uint32) {
	if f != nil {
		n.slot = f
	}
}

// ID returns the node's identity.
func (n *Node) ID() identity.NodeID { return n.cfg.Key.ID }

// Engine exposes the node's 2LDAG state machine.
func (n *Node) Engine() *core.Engine { return n.engine }

// CommitJournal closes the durability backend's open WAL commit
// window (see core.Engine.CommitJournal). Drivers call it at the
// flush boundary when the backend runs a batched sync policy; a no-op
// for in-memory nodes.
func (n *Node) CommitJournal() error { return n.engine.CommitJournal() }

// Blacklist exposes the node's penalty book (Sec. IV-D6).
func (n *Node) Blacklist() *ledger.Blacklist { return n.bl }

// dedupWindow bounds the per-sender idempotent-receive memory. A
// duplicate can only trail its original by the fabric's maximum delay,
// during which a sender seals at most a handful of digests, so a short
// window suffices; the window only needs to outlive the oldest copy
// still in flight.
const dedupWindow = 64

// seenRing remembers the last dedupWindow digests ingested from one
// sender: O(1) membership via the index map, O(1) eviction via the
// ring.
type seenRing struct {
	ring [dedupWindow]digest.Digest
	idx  map[digest.Digest]struct{}
	n    int
}

func newSeenRing() *seenRing {
	return &seenRing{idx: make(map[digest.Digest]struct{}, dedupWindow)}
}

func (r *seenRing) has(d digest.Digest) bool {
	_, ok := r.idx[d]
	return ok
}

func (r *seenRing) add(d digest.Digest) {
	if r.has(d) {
		return
	}
	slot := r.n % dedupWindow
	if r.n >= dedupWindow {
		delete(r.idx, r.ring[slot])
	}
	r.ring[slot] = d
	r.idx[d] = struct{}{}
	r.n++
}

// seenBefore reports whether from already delivered d.
func (n *Node) seenBefore(from identity.NodeID, d digest.Digest) bool {
	r, ok := n.seen[from]
	return ok && r.has(d)
}

// markSeen records d as ingested from from.
func (n *Node) markSeen(from identity.NodeID, d digest.Digest) {
	r, ok := n.seen[from]
	if !ok {
		r = newSeenRing()
		n.seen[from] = r
	}
	r.add(d)
}

// handle serves unsolicited messages: digest announcements and
// responder duties.
func (n *Node) handle(env transport.Envelope) {
	msg := env.Msg
	ctx := context.Background()
	switch msg.Kind {
	case wire.KindDigestAnnounce:
		n.onAnnounce(ctx, msg)
	case wire.KindDigestBatch:
		n.onAnnounceBatch(ctx, msg)
	case wire.KindDigestAck:
		n.onDigestAck(msg)
	case wire.KindHello, wire.KindPeerList, wire.KindLeave:
		if c := n.cfg.Control; c != nil {
			c(env)
		}
	case wire.KindReqChild:
		if h, err := n.engine.Responder().ChildFor(msg.Digest); err == nil {
			_ = n.rpc.Reply(ctx, msg.From, wire.NewRpyChild(msg, h))
		} else {
			_ = n.rpc.Reply(ctx, msg.From, wire.NewNotFound(msg))
		}
	case wire.KindGetBlock:
		if b, err := n.engine.Responder().Block(msg.Ref); err == nil {
			_ = n.rpc.Reply(ctx, msg.From, wire.NewBlockResp(msg, b))
		} else {
			_ = n.rpc.Reply(ctx, msg.From, wire.NewNotFound(msg))
		}
	default:
		// Unknown unsolicited kinds are dropped (authenticated peers
		// never send them).
	}
}

// ack answers an ingested (or already-ingested) announcement with a
// wire-level DigestAck when the node runs in AnnounceAcks mode. Losses
// are tolerated: the sender's retry re-announces, the receiver dedups
// and re-acks.
func (n *Node) ack(ctx context.Context, msg *wire.Message) {
	if !n.cfg.AnnounceAcks {
		return
	}
	_ = n.rpc.Reply(ctx, msg.From, wire.NewDigestAck(msg))
}

// onAnnounce ingests a digest announcement: idempotent-receive dedup
// first (re-deliveries are free and side-effect-less), then the DoS
// rate guard, then A_i.
func (n *Node) onAnnounce(ctx context.Context, msg *wire.Message) {
	from := msg.From
	if n.seenBefore(from, msg.Digest) {
		// Duplicate or retry of an ingested digest. Re-ack it: the
		// retry means the original ack may have been lost, and without
		// a fresh one the sender's pending wait never resolves.
		n.ack(ctx, msg)
		return
	}
	if !n.announceAllowed(from, 1) {
		return // banned or flooding senders get no acknowledgement
	}
	if err := n.engine.OnDigest(from, msg.Digest); err != nil {
		return // non-neighbors rejected inside
	}
	n.markSeen(from, msg.Digest)
	if obs := n.cfg.Observer; obs != nil {
		// Receiver-side event: the digest is now in A_i, so the sender
		// can treat this as a delivery acknowledgement.
		obs.OnDigestAnnounced(events.DigestAnnounced{From: from, To: n.ID(), Digest: msg.Digest})
	}
	n.ack(ctx, msg)
}

// onAnnounceBatch ingests a coalesced announcement frame: the DoS
// guard charges the sender one announcement per carried digest, then
// the whole batch enters A_i in one engine pass and is acknowledged
// with a single receiver-side DigestBatchDelivered event. A flush
// that would cross AnnounceLimit is dropped whole — unlike the
// singleton flood, no under-limit prefix lands: a frame flooding past
// the PoW-plausible rate is hostile end to end, and announcement loss
// is tolerated anyway (neighbors pick up the next digest).
func (n *Node) onAnnounceBatch(ctx context.Context, msg *wire.Message) {
	from := msg.From
	if n.bl.Banned(from) {
		return // cheap pre-check: banned peers don't get a decode
	}
	ds, err := msg.DecodeDigestBatchPayload()
	if err != nil || len(ds) == 0 {
		return // malformed or empty frames are dropped
	}
	// Idempotent receive: drop already-ingested digests from the frame
	// (in place, preserving seal order) so a re-delivered batch neither
	// re-charges the rate guard nor regresses the latest-wins cache.
	fresh := ds[:0]
	for _, d := range ds {
		if !n.seenBefore(from, d) {
			fresh = append(fresh, d)
		}
	}
	if len(fresh) == 0 {
		// Pure duplicate frame: every carried digest is already in A_i,
		// so re-ack the whole frame (the retry implies a lost ack).
		n.ack(ctx, msg)
		return
	}
	if !n.announceAllowed(from, len(fresh)) {
		return // banned or flooding senders get no acknowledgement
	}
	if err := n.engine.OnDigestsFrom(from, fresh); err != nil {
		return // non-neighbors rejected inside
	}
	for _, d := range fresh {
		n.markSeen(from, d)
	}
	if obs := n.cfg.Observer; obs != nil {
		froms := n.batchFrom[:0]
		for range fresh {
			froms = append(froms, from)
		}
		n.batchFrom = froms
		obs.OnDigestBatchDelivered(events.DigestBatchDelivered{To: n.ID(), From: froms, Digests: fresh})
	}
	// Note: the decode above consumed msg's payload copy, but NewDigestAck
	// echoes the original payload bytes, so the ack still carries the
	// full digest run — including any previously-seen suffix whose
	// earlier ack may have been lost.
	n.ack(ctx, msg)
}

// onDigestAck turns a wire-level delivery acknowledgement back into
// the receiver-side observer events the ack tracker understands: the
// peer at msg.From has the acknowledged digests in its A_i, exactly as
// if this process had observed the ingest directly.
func (n *Node) onDigestAck(msg *wire.Message) {
	obs := n.cfg.Observer
	if obs == nil || !n.cfg.AnnounceAcks {
		return
	}
	ds, err := msg.DecodeDigestAckPayload()
	if err != nil {
		return
	}
	if ds == nil {
		// Singleton announcement ack.
		obs.OnDigestAnnounced(events.DigestAnnounced{From: n.ID(), To: msg.From, Digest: msg.Digest})
		return
	}
	froms := n.batchFrom[:0]
	for range ds {
		froms = append(froms, n.ID())
	}
	n.batchFrom = froms
	obs.OnDigestBatchDelivered(events.DigestBatchDelivered{To: msg.From, From: froms, Digests: ds})
}

// announceAllowed applies the receiver-side DoS defense of Sec. IV-D5
// for count announcements arriving from one neighbor at once: a
// banned sender is ignored, and a sender exceeding AnnounceLimit
// digests within AnnounceWindow is banned (flooding faster than the
// PoW difficulty plausibly allows — "a node may ban a neighbor that
// generates blocks quicker than the expected time to solve the
// puzzle").
func (n *Node) announceAllowed(from identity.NodeID, count int) bool {
	if n.bl.Banned(from) {
		return false
	}
	if n.cfg.AnnounceWindow <= 0 || n.cfg.AnnounceLimit <= 0 {
		return true
	}
	now := time.Now()
	n.mu.Lock()
	keep := n.lastAnns[from][:0]
	for _, t := range n.lastAnns[from] {
		if now.Sub(t) <= n.cfg.AnnounceWindow {
			keep = append(keep, t)
		}
	}
	for i := 0; i < count; i++ {
		keep = append(keep, now)
	}
	n.lastAnns[from] = keep
	over := len(keep) > n.cfg.AnnounceLimit
	n.mu.Unlock()
	if over {
		for !n.bl.Banned(from) {
			n.bl.ReportFailure(from)
		}
		return false
	}
	return true
}

// Generate produces the node's next block from body and announces its
// digest to every neighbor. Equivalent to GenerateLocal followed by
// Announce; callers that need to observe the announcement (e.g. an
// event-driven delivery ack) use the two halves directly.
func (n *Node) Generate(ctx context.Context, body []byte) (*block.Block, error) {
	b, d, err := n.GenerateLocal(body)
	if err != nil {
		return nil, err
	}
	n.Announce(ctx, d)
	return b, nil
}

// GenerateLocal seals the node's next block from body — mined, signed
// and appended to S_i — without announcing it, and returns the block
// together with the digest to announce.
func (n *Node) GenerateLocal(body []byte) (*block.Block, digest.Digest, error) {
	return n.sealed(n.engine.Generate(n.slot(), body))
}

// SealLocal and PublishLocal are GenerateLocal split around a commit
// window the driver closes in between (core.Engine.Seal and Publish):
// SealLocal mines and signs the next block and stages its journal
// record, PublishLocal appends it to S_i and fires BlockSealed. A block
// whose window failed is simply never published.
func (n *Node) SealLocal(body []byte) (*block.Block, error) {
	return n.engine.Seal(n.slot(), body)
}

func (n *Node) PublishLocal(b *block.Block) (digest.Digest, error) {
	_, d, err := n.sealed(n.engine.Publish(b))
	return d, err
}

// sealed reports a block that has just entered S_i to the observer.
func (n *Node) sealed(b *block.Block, d digest.Digest, err error) (*block.Block, digest.Digest, error) {
	if err != nil {
		return nil, digest.Digest{}, err
	}
	if obs := n.cfg.Observer; obs != nil {
		obs.OnBlockSealed(events.BlockSealed{Node: n.ID(), Ref: b.Header.Ref(), Digest: d, Slot: b.Header.Time})
	}
	return b, d, nil
}

// sendAnnounce pushes one announcement frame to nb, feeding the
// health tracker and surfacing the loss as a MessageDropped event when
// the fabric reports one (sender-side backpressure or an unreachable
// peer). Caller cancellation is not a peer failure.
func (n *Node) sendAnnounce(ctx context.Context, nb identity.NodeID, msg *wire.Message) {
	err := n.rpc.Transport().Send(ctx, nb, msg)
	if err == nil {
		n.cfg.Health.ReportSuccess(nb)
		return
	}
	if ctx.Err() != nil {
		return
	}
	n.cfg.Health.ReportFailure(nb)
	if obs := n.cfg.Observer; obs != nil {
		reason := events.DropUnreachable
		if errors.Is(err, transport.ErrBackpressure) {
			reason = events.DropBackpressure
		}
		obs.OnMessageDropped(events.MessageDropped{
			From: n.ID(), To: nb, Kind: uint8(msg.Kind), Reason: reason,
		})
	}
}

// Announce broadcasts a sealed block's digest to every radio neighbor
// (Sec. III-D). Losses are tolerated: neighbors that miss the digest
// pick up the next one (A_i keeps only the latest anyway).
func (n *Node) Announce(ctx context.Context, d digest.Digest) {
	for _, nb := range n.cfg.Topo.Neighbors(n.ID()) {
		n.AnnounceTo(ctx, nb, d)
	}
}

// AnnounceTo sends one digest announcement to a single neighbor — the
// targeted re-transmission path: a retrying submitter re-announces
// only to the neighbors whose acknowledgement is still missing.
// Receivers dedup on the digest, so re-sending an already-delivered
// digest is free and side-effect-less.
func (n *Node) AnnounceTo(ctx context.Context, nb identity.NodeID, d digest.Digest) {
	n.sendAnnounce(ctx, nb, wire.NewDigestAnnounce(n.ID(), nb, d, n.rpc.NextNonce()))
}

// AnnounceBatch broadcasts a run of sealed digests (in seal order) to
// every radio neighbor, coalesced into one DigestBatch frame per
// neighbor — one frame per (sender, receiver) pair per flush instead
// of one per digest. A single digest falls back to the singleton
// DigestAnnounce frame. Losses are tolerated exactly as with
// Announce.
//
// Retry/idempotency contract: announcement delivery is at-least-once
// when a caller retries (AnnounceTo) and exactly-once in effect —
// every receiver dedups on the digest before any side effect, so a
// re-sent or duplicated frame never double-charges the Sec. IV-D5
// rate guard, never regresses A_i's latest-wins entry, and never
// re-fires the delivery acknowledgement event.
func (n *Node) AnnounceBatch(ctx context.Context, ds []digest.Digest) {
	switch len(ds) {
	case 0:
		return
	case 1:
		n.Announce(ctx, ds[0])
		return
	}
	// One frame shared across neighbors: the digest concatenation is
	// built once and only To/Nonce are retargeted per send — safe
	// because both transports serialize the message inside Send and
	// never retain it.
	msg := wire.NewDigestBatch(n.ID(), 0, ds, 0)
	for _, nb := range n.cfg.Topo.Neighbors(n.ID()) {
		msg.To = nb
		msg.Nonce = n.rpc.NextNonce()
		n.sendAnnounce(ctx, nb, msg)
	}
}

// Call runs one request/response exchange with peer — the
// membership-plane RPC path (Hello → PeerList). build receives a fresh
// correlation ID and anti-replay nonce.
func (n *Node) Call(ctx context.Context, peer identity.NodeID, build func(corr, nonce uint64) *wire.Message) (*wire.Message, error) {
	return n.rpc.Call(ctx, peer, build)
}

// Send pushes one fire-and-forget frame to peer — the membership-plane
// broadcast path (PeerList pushes, Leave).
func (n *Node) Send(ctx context.Context, peer identity.NodeID, msg *wire.Message) error {
	return n.rpc.Transport().Send(ctx, peer, msg)
}

// NextNonce returns a fresh anti-replay nonce for control frames.
func (n *Node) NextNonce() uint64 { return n.rpc.NextNonce() }

// Audit verifies the given block via PoP over the live network and
// returns the consensus result.
func (n *Node) Audit(ctx context.Context, ref block.Ref) (*core.Result, error) {
	res, err := n.validator.Verify(ctx, ref, &n.fetcher)
	if obs := n.cfg.Observer; obs != nil {
		if err == nil && res.Consensus {
			obs.OnConsensusReached(events.ConsensusReached{
				Validator: n.ID(), Target: ref, Vouchers: res.Vouchers,
				PathLen: len(res.Path), Messages: res.MessagesSent + res.MessagesReceived,
				TrustHits: res.TrustHits,
			})
		} else {
			obs.OnAuditFailed(events.AuditFailed{Validator: n.ID(), Target: ref, Err: err})
		}
	}
	return res, err
}

// Close stops serving and releases the transport.
func (n *Node) Close() error {
	n.closeMu.Lock()
	defer n.closeMu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	err := n.rpc.Close()
	n.wg.Wait()
	return err
}

// rpcFetcher adapts the RPC layer to the core.Fetcher seam.
type rpcFetcher struct {
	node *Node
}

var _ core.Fetcher = (*rpcFetcher)(nil)

// call runs one PoP request against peer with the node's retry policy:
// failed calls back off (exponential, deterministic jitter) and retry
// up to Retry.MaxAttempts, feeding the health tracker on every
// outcome. Safe to repeat because PoP requests are read-only and
// correlation IDs are fresh per attempt — a late reply to an abandoned
// attempt is dropped by the RPC layer.
func (f *rpcFetcher) call(ctx context.Context, peer identity.NodeID, build func(corr, nonce uint64) *wire.Message) (*wire.Message, error) {
	n := f.node
	attempts := n.cfg.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		resp, err := n.rpc.Call(ctx, peer, build)
		if err == nil {
			n.cfg.Health.ReportSuccess(peer)
			return resp, nil
		}
		if ctx.Err() == nil {
			n.cfg.Health.ReportFailure(peer)
		}
		if attempt >= attempts || ctx.Err() != nil {
			return nil, err
		}
		if wait := n.cfg.Retry.Backoff(attempt+1, uint64(peer)); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, err
			case <-timer.C:
			}
		}
		if obs := n.cfg.Observer; obs != nil {
			obs.OnRetryAttempted(events.RetryAttempted{
				Node: n.ID(), Peer: peer, Announce: false, Attempt: attempt + 1,
			})
		}
	}
}

// RequestChild implements core.Fetcher over REQ_CHILD/RPY_CHILD.
func (f *rpcFetcher) RequestChild(ctx context.Context, j identity.NodeID, target digest.Digest) (*block.Header, error) {
	self := f.node.ID()
	if obs := f.node.cfg.Observer; obs != nil {
		obs.OnAuditHop(events.AuditHop{Validator: self, Responder: j, Target: target})
	}
	resp, err := f.call(ctx, j, func(corr, nonce uint64) *wire.Message {
		return wire.NewReqChild(self, j, target, corr, nonce)
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrTimeout, err)
	}
	if resp.Kind != wire.KindRpyChild {
		return nil, core.ErrNoChild
	}
	h, err := resp.DecodeHeaderPayload()
	if err != nil {
		return nil, fmt.Errorf("node: bad RPY_CHILD from %v: %w", j, err)
	}
	return h, nil
}

// FetchBlock implements core.Fetcher over GET_BLOCK/BLOCK_RESP.
func (f *rpcFetcher) FetchBlock(ctx context.Context, ref block.Ref) (*block.Block, error) {
	self := f.node.ID()
	resp, err := f.call(ctx, ref.Node, func(corr, nonce uint64) *wire.Message {
		return wire.NewGetBlock(self, ref.Node, ref, corr, nonce)
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrTimeout, err)
	}
	if resp.Kind != wire.KindBlockResp {
		return nil, ledger.ErrNotFound
	}
	b, err := resp.DecodeBlockPayload()
	if err != nil {
		return nil, fmt.Errorf("node: bad BLOCK_RESP from %v: %w", ref.Node, err)
	}
	return b, nil
}
