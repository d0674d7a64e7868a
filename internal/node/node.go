// Package node is the live 2LDAG runtime: one Node per IoT device,
// combining the core engine (block generation, digest cache), the
// Algorithm 4 responder, a PoP validator and a transport. Nodes
// exchange real wire messages — digest announcements on generation
// (Sec. III-D), always DigestBatch frames (AnnounceBatch, AnnounceTo),
// REQ_CHILD/RPY_CHILD and block retrievals during PoP (Sec. IV) — over
// either the in-memory fabric or TCP.
//
// A receiver admits a neighbor's digests into A_i whatever their rate:
// the ban of Sec. IV-D5 on a neighbor announcing faster than the
// proof-of-work difficulty plausibly allows is not reproduced, because
// it would key on a frame's From, which TCP does not authenticate. A
// node keeps no record of a peer's standing beyond Config.Health, whose
// suspicion routes audits around a peer and lifts on its next answer.
package node

import (
	"context"
	"encoding/binary"
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
	// Leave) that the data-plane node does not interpret itself — the
	// cluster host owning this node handles directory state there. A
	// PeerList is only ever read as the reply to a Call; an unsolicited
	// one is dropped. Runs on the dispatch goroutine; must not
	// block.
	Control func(transport.Envelope)
	// State, when non-nil, is the recovered ledger state (checkpoint +
	// segment + WAL replay) the node resumes from instead of empty
	// structures. Its store must be owned by Key.ID.
	State *ledger.NodeState
	// TrustCap, when > 0, bounds H_i (FIFO eviction). Applied on top
	// of any recovered state.
	TrustCap int
	// Backend, when non-nil, journals every ledger mutation for crash
	// recovery. The node attaches it after restoring State (recovery
	// is never re-journaled) but does not own it: the caller that
	// opened the backend syncs and closes it after node.Close.
	Backend *ledger.FileBackend
	// AnnounceAcks switches delivery acknowledgement to the wire: each
	// ingested announcement (and each pure re-delivery, whose original
	// ack may have been lost) is answered with a DigestAck frame, and
	// incoming DigestAcks synthesize the receiver-side delivery events
	// on this node's observer. In-process clusters leave this off — the
	// receiver's own observer events reach the submitter's ack tracker
	// directly. Cross-process clusters need it: events don't cross
	// process boundaries.
	AnnounceAcks bool
	// VerifyCache, when non-nil, is the header-verification cache the
	// node's engine and validator use (core.EngineOptions.VerifyCache);
	// nil gives the node a private one. A verification result is a fact
	// about a sealed header under one (Params, Ring) pair, so the nodes
	// of one process that share that pair share one cache: an
	// in-process cluster passes every device the same cache, and a
	// host running one device per process passes none.
	VerifyCache *block.VerifyCache
}

// Node is a running 2LDAG participant.
type Node struct {
	cfg    Config
	engine *core.Engine
	rpc    *transport.RPC

	// validator and fetcher serve every Audit: a Validator holds only
	// configuration and is safe for concurrent Verify calls, and the
	// fetcher is a stateless adapter over rpc.
	validator *core.Validator
	fetcher   rpcFetcher

	// batchFrom is the scratch sender column for DigestBatchDelivered
	// events on single-sender wire batches. It is only touched from
	// the RPC dispatch goroutine (handle's announcement arms run
	// serially), so no lock is needed, and the event contract lets
	// observers see it only for the duration of the call.
	batchFrom []identity.NodeID

	// seen is the idempotent-receive guard: per sender, the recent
	// digests already ingested into A_i. A re-delivered digest —
	// a retry, an injected duplicate, a delayed copy arriving after
	// newer announcements — is discarded before the latest-wins cache
	// could regress to a stale entry. Like batchFrom it is only touched
	// from the dispatch goroutine, so no lock is needed.
	seen map[identity.NodeID]*seenRing

	slot func() uint32

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
	eng, err := core.NewEngineWith(cfg.Key, cfg.Params, cfg.Topo, core.EngineOptions{
		State: cfg.State, TrustCap: cfg.TrustCap, Backend: cfg.Backend, VerifyCache: cfg.VerifyCache,
	})
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n := &Node{
		cfg:    cfg,
		engine: eng,
		seen:   make(map[identity.NodeID]*seenRing),
		slot:   wallClockSlot,
	}
	n.validator, err = eng.Validator(cfg.Gamma, cfg.Ring, func(c *core.ValidatorConfig) {
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

// dedupWindow bounds the per-sender idempotent-receive memory. A
// duplicate can only trail its original by the fabric's maximum delay,
// during which a sender seals at most a handful of digests, so a short
// window suffices; the window only needs to outlive the oldest copy
// still in flight. It is also how many words a lookup scans (seenRing),
// which is one more reason to keep it short.
const dedupWindow = 64

// seenRing remembers the last dedupWindow digests ingested from one
// sender in a flat ring: the digests, and beside them each one's first
// 8 bytes as a word. A lookup scans the words of the filled slots and
// confirms a matching word on the whole digest; a record overwrites
// the oldest slot once the ring is full. No map sits beside the ring,
// so a sender costs the ring's 2.7 KiB however many digests it once
// sent.
type seenRing struct {
	keys [dedupWindow]uint64
	ring [dedupWindow]digest.Digest
	n    int // digests recorded; the next goes to slot n % dedupWindow
}

func seenKey(d digest.Digest) uint64 { return binary.LittleEndian.Uint64(d[:]) }

// holds reports whether d is among the digests recorded since the
// ring's count was since and not yet overwritten.
func (r *seenRing) holds(d digest.Digest, since int) bool {
	k := seenKey(d)
	for m := max(since, r.n-dedupWindow); m < r.n; m++ {
		if s := uint(m) % dedupWindow; r.keys[s] == k && r.ring[s] == d {
			return true
		}
	}
	return false
}

// record appends a frame's fresh digests, each of which has just been
// found absent (holds(d, 0)). So only a digest the frame repeats can
// be in the ring already, among those this call recorded, and only
// they are searched: each digest costs one full scan however it
// arrives, and the ring holds dedupWindow distinct digests.
func (r *seenRing) record(fresh []digest.Digest) {
	start := r.n
	for _, d := range fresh {
		if !r.holds(d, start) {
			s := uint(r.n) % dedupWindow
			r.keys[s], r.ring[s] = seenKey(d), d
			r.n++
		}
	}
}

// seenBefore reports whether from already delivered d.
func (n *Node) seenBefore(from identity.NodeID, d digest.Digest) bool {
	r, ok := n.seen[from]
	return ok && r.holds(d, 0)
}

// markSeen records from's fresh digests as ingested (see
// seenRing.record).
func (n *Node) markSeen(from identity.NodeID, fresh []digest.Digest) {
	r, ok := n.seen[from]
	if !ok {
		r = new(seenRing)
		n.seen[from] = r
	}
	r.record(fresh)
}

// handle serves unsolicited messages: digest announcements and
// responder duties, on both fabrics the one server of REQ_CHILD and
// GET_BLOCK. Everything but those two runs serially on the RPC's
// dispatch goroutine. The in-memory fabric runs the two requests on
// the requester's goroutine instead (see package transport), alongside
// dispatch and each other; their arms only read S_i, under the store's
// own locks, and touch no A_i or dedup state.
func (n *Node) handle(env transport.Envelope) {
	msg := env.Msg
	ctx := context.Background()
	switch msg.Kind {
	case wire.KindDigestBatch:
		n.onAnnounceBatch(ctx, msg)
	case wire.KindDigestAck:
		n.onDigestAck(msg)
	case wire.KindHello, wire.KindLeave:
		if c := n.cfg.Control; c != nil {
			c(env)
		}
	case wire.KindReqChild:
		v, err := n.engine.Responder().Child(msg.Digest)
		n.reply(ctx, msg.From, answer(msg, v, err))
	case wire.KindGetBlock:
		v, err := n.engine.Responder().Serve(msg.Ref)
		n.reply(ctx, msg.From, answer(msg, v, err))
	default:
		// Unknown unsolicited kinds are dropped (authenticated peers
		// never send them).
	}
}

// answer builds the reply to a REQ_CHILD or GET_BLOCK from what the
// responder served: NOT_FOUND on an error, else the header or block
// S_i holds, or the encoding read back from its segment record as it
// stands — nothing decoded or re-encoded.
func answer(req *wire.Message, v ledger.Served, err error) *wire.Message {
	switch {
	case err != nil:
		return wire.NewNotFound(req)
	case req.Kind == wire.KindReqChild && v.Block != nil:
		return wire.NewRpyChild(req, &v.Block.Header)
	case req.Kind == wire.KindReqChild:
		return wire.NewRpyChildEncoded(req, v.Enc[:v.HeaderLen])
	case v.Block != nil:
		return wire.NewBlockResp(req, v.Block)
	}
	return wire.NewBlockRespEncoded(req, v.Enc)
}

// reply sends a response to a frame handle serves. It goes out on the
// node's transport, not through n.rpc: a transport may hand handle a
// frame as soon as NewRPC installs the handler, before New has stored
// the RPC — on the in-memory fabric a peer's PoP read is served on the
// peer's own goroutine the moment the node's endpoint has a handler.
func (n *Node) reply(ctx context.Context, to identity.NodeID, msg *wire.Message) {
	_ = n.cfg.Transport.Send(ctx, to, msg)
}

// ack answers an ingested (or already-ingested) announcement with a
// wire-level DigestAck when the node runs in AnnounceAcks mode. The ack
// outlives this process, so the digest records it vouches for reach the
// kernel first; without that, no ack. Losses are tolerated: the
// sender's retry re-announces, the receiver dedups and re-acks.
func (n *Node) ack(ctx context.Context, msg *wire.Message) {
	if !n.cfg.AnnounceAcks || n.engine.FlushJournal() != nil {
		return
	}
	n.reply(ctx, msg.From, wire.NewDigestAck(msg))
}

// onAnnounceBatch ingests an announcement frame: idempotent-receive
// dedup first (re-deliveries are free and side-effect-less), then the
// fresh run enters A_i in one engine pass and is acknowledged with a
// single receiver-side DigestBatchDelivered event.
func (n *Node) onAnnounceBatch(ctx context.Context, msg *wire.Message) {
	from := msg.From
	ds, err := msg.DecodeDigestBatchPayload()
	if err != nil || len(ds) == 0 {
		return // malformed or empty frames are dropped
	}
	// Idempotent receive: drop already-ingested digests from the frame
	// (in place, preserving seal order) so a re-delivered batch cannot
	// regress the latest-wins cache.
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
	if err := n.engine.OnDigestsFrom(from, fresh); err != nil {
		return // non-neighbors rejected inside
	}
	n.markSeen(from, fresh)
	n.delivered(from, n.ID(), fresh)
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
	if !n.cfg.AnnounceAcks {
		return
	}
	if ds, err := msg.DecodeDigestAckPayload(); err == nil && len(ds) > 0 {
		n.delivered(n.ID(), msg.From, ds) // an ack with no digests names none
	}
}

// delivered reports that to ingested from's run ds as one
// DigestBatchDelivered event, the sender column in batchFrom.
func (n *Node) delivered(from, to identity.NodeID, ds []digest.Digest) {
	obs := n.cfg.Observer
	if obs == nil {
		return
	}
	froms := n.batchFrom[:0]
	for range ds {
		froms = append(froms, from)
	}
	n.batchFrom = froms
	obs.OnDigestBatchDelivered(events.DigestBatchDelivered{To: to, From: froms, Digests: ds})
}

// SealLocal and PublishLocal seal the node's next block from body
// around a commit window the driver closes in between (core.Engine.Seal
// and Publish): SealLocal mines and signs the next block and stages its
// journal record, PublishLocal appends it to S_i and fires BlockSealed,
// returning the digest to announce. Neither announces. A block whose
// window failed is simply never published.
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

// AnnounceTo re-sends one digest to a single neighbor as a one-digest
// DigestBatch frame — the targeted re-transmission path: a retrying
// submitter re-announces only to the neighbors whose acknowledgement
// is still missing. Receivers dedup on the digest, so re-sending an
// already-delivered digest is free and side-effect-less.
func (n *Node) AnnounceTo(ctx context.Context, nb identity.NodeID, d digest.Digest) {
	n.sendAnnounce(ctx, nb, wire.NewDigestBatch(n.ID(), nb, []digest.Digest{d}, n.rpc.NextNonce()))
}

// AnnounceBatch broadcasts a run of sealed digests (in seal order) to
// every radio neighbor (Sec. III-D), coalesced into one DigestBatch
// frame per neighbor — one frame per (sender, receiver) pair per flush
// instead of one per digest. Losses are tolerated: neighbors that miss
// a frame pick up the next digest (A_i keeps only the latest anyway).
//
// Retry/idempotency contract: announcement delivery is at-least-once
// when a caller retries (AnnounceTo) and exactly-once in effect —
// every receiver dedups on the digest before any side effect, so a
// re-sent or duplicated frame never regresses A_i's latest-wins entry
// and never re-fires the delivery acknowledgement event.
func (n *Node) AnnounceBatch(ctx context.Context, ds []digest.Digest) {
	if len(ds) == 0 {
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
// path for a Hello's PeerList reply and for Leave.
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
	return n.rpc.Close()
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
	// The devices sharing the engine's cache then hold one object for
	// this header between them.
	return f.node.engine.VerifyCache().Intern(h), nil
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
