// Package faults is the deterministic fault-injection fabric: a
// seeded Plan that wraps any transport.Transport with frame drops,
// delays, duplicates, per-slot partitions and peer crash windows, so
// the same chaos replays identically over the in-memory network and
// TCP. It also houses the recovery half of the robustness substrate:
// RetryPolicy (exponential backoff with deterministic jitter, bounded
// attempts) and Health (a per-peer consecutive-failure circuit
// breaker).
//
// Every per-frame decision — drop, delay, duplicate — is a pure
// function of (Plan.Seed, sender, receiver, the link's send ordinal),
// not of shared RNG state or wall-clock time. Two runs that issue the
// same sequence of sends on a link therefore suffer the same injected
// faults, on either fabric; only delivery timing differs. Partitions
// and crash windows key on the deployment's logical slot instead, so
// a schedule written against the drive loop ("cut {1,2}|{3,4} during
// slots 3–5") holds regardless of how fast the run executes.
//
// A worked plan:
//
//	plan := faults.Plan{
//		Seed:          42,
//		DropRate:      0.15,                  // lose ~15% of frames
//		DuplicateRate: 0.10,                  // re-deliver ~10% of frames
//		MaxDelay:      5 * time.Millisecond,  // uniform [0, 5ms) delivery delay
//		Partitions: []faults.Partition{{
//			From: 3, Until: 5,                 // heals at slot 5
//			SideA: []identity.NodeID{1, 2}, SideB: []identity.NodeID{3, 4},
//		}},
//		Crashes: []faults.CrashWindow{{Node: 2, From: 6, Until: 8}},
//	}
//	ft := faults.Wrap(endpoint, plan, cluster.Slot, observer)
//
// Wrapping the same plan around every node of a deployment reproduces
// the same chaos on every run with that seed — the property the chaos
// equivalence suite builds on: a plan within the protocol's tolerance
// (recoverable drops, partitions and crashes confined to audit-only
// slots) must leave sealed-header hashes and audit outcomes identical
// to the fault-free run.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// Partition cuts every link between SideA and SideB for logical slots
// in [From, Until) — the partition heals when the deployment reaches
// slot Until. Traffic within a side is unaffected.
type Partition struct {
	From, Until uint32
	SideA       []identity.NodeID
	SideB       []identity.NodeID
}

// cuts reports whether the partition severs the (a, b) link at slot s.
func (p Partition) cuts(a, b identity.NodeID, s uint32) bool {
	if s < p.From || s >= p.Until {
		return false
	}
	return (contains(p.SideA, a) && contains(p.SideB, b)) ||
		(contains(p.SideB, a) && contains(p.SideA, b))
}

func contains(ids []identity.NodeID, id identity.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// CrashWindow takes Node off the air for slots in [From, Until): every
// frame it sends or should receive is dropped, as if the device lost
// power. The node's state survives — at slot Until it "restarts" with
// its stores intact and traffic flows again.
type CrashWindow struct {
	Node        identity.NodeID
	From, Until uint32
}

// Plan is a seeded fault schedule. The zero value injects nothing
// (Active reports false); every field composes independently.
type Plan struct {
	// Seed anchors every per-frame decision. Same plan, same seed, same
	// send sequence — same faults.
	Seed int64
	// DropRate is the per-frame loss probability in [0, 1].
	DropRate float64
	// DuplicateRate is the per-frame probability in [0, 1] that a frame
	// is delivered twice (the copy draws its own delay, so duplicates
	// double as reordering).
	DuplicateRate float64
	// MaxDelay delays each delivered frame uniformly in [0, MaxDelay).
	// Delayed frames overtake each other freely — reordering is implied.
	MaxDelay time.Duration
	// Partitions is the per-slot partition schedule.
	Partitions []Partition
	// Crashes is the per-slot peer crash/restart schedule.
	Crashes []CrashWindow
}

// Active reports whether the plan can inject any fault at all.
func (p Plan) Active() bool {
	return p.DropRate > 0 || p.DuplicateRate > 0 || p.MaxDelay > 0 ||
		len(p.Partitions) > 0 || len(p.Crashes) > 0
}

// Validate checks the plan's parameters.
func (p Plan) Validate() error {
	if p.DropRate < 0 || p.DropRate > 1 {
		return fmt.Errorf("faults: DropRate %v outside [0, 1]", p.DropRate)
	}
	if p.DuplicateRate < 0 || p.DuplicateRate > 1 {
		return fmt.Errorf("faults: DuplicateRate %v outside [0, 1]", p.DuplicateRate)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("faults: negative MaxDelay %v", p.MaxDelay)
	}
	for i, part := range p.Partitions {
		if part.Until <= part.From {
			return fmt.Errorf("faults: partition %d never active (From %d, Until %d)", i, part.From, part.Until)
		}
		if len(part.SideA) == 0 || len(part.SideB) == 0 {
			return fmt.Errorf("faults: partition %d has an empty side", i)
		}
	}
	for i, cw := range p.Crashes {
		if cw.Until <= cw.From {
			return fmt.Errorf("faults: crash window %d never active (From %d, Until %d)", i, cw.From, cw.Until)
		}
	}
	return nil
}

// crashed reports whether id is inside a crash window at slot s.
func (p Plan) crashed(id identity.NodeID, s uint32) bool {
	for _, cw := range p.Crashes {
		if cw.Node == id && s >= cw.From && s < cw.Until {
			return true
		}
	}
	return false
}

// partitioned reports whether any scheduled partition cuts (a, b) at
// slot s.
func (p Plan) partitioned(a, b identity.NodeID, s uint32) bool {
	for _, part := range p.Partitions {
		if part.cuts(a, b, s) {
			return true
		}
	}
	return false
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over
// uint64, the primitive behind every seeded per-frame decision.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is a splitmix64 sequence keyed by one frame's identity.
type stream struct{ s uint64 }

// frameStream keys the decision stream for the n-th frame ever sent
// from 'from' to 'to' under seed.
func frameStream(seed int64, from, to identity.NodeID, n uint64) stream {
	s := mix64(uint64(seed) ^ 0x2545f4914f6cdd1d)
	s = mix64(s ^ uint64(from))
	s = mix64(s ^ uint64(to)<<32)
	s = mix64(s ^ n)
	return stream{s: s}
}

func (st *stream) next() uint64 {
	st.s += 0x9e3779b97f4a7c15
	return mix64(st.s)
}

// float returns a uniform float64 in [0, 1).
func (st *stream) float() float64 { return float64(st.next()>>11) / (1 << 53) }

// Transport wraps an inner transport with a Plan. It implements
// transport.Transport; receive and close pass straight through, Send
// applies the plan. Safe for concurrent use like the fabrics it wraps.
type Transport struct {
	inner transport.Transport
	plan  Plan
	slot  func() uint32
	obs   events.Observer

	mu     sync.Mutex
	seq    map[identity.NodeID]uint64
	closed bool
}

var _ transport.Transport = (*Transport)(nil)

// Wrap applies plan to every frame inner sends. slot supplies the
// deployment's logical slot for partition and crash schedules (nil
// pins slot 0, which still activates windows covering slot 0). obs,
// when non-nil, receives a MessageDropped event per injected loss.
func Wrap(inner transport.Transport, plan Plan, slot func() uint32, obs events.Observer) *Transport {
	if slot == nil {
		slot = func() uint32 { return 0 }
	}
	return &Transport{
		inner: inner,
		plan:  plan,
		slot:  slot,
		obs:   obs,
		seq:   make(map[identity.NodeID]uint64),
	}
}

// Self implements transport.Transport.
func (t *Transport) Self() identity.NodeID { return t.inner.Self() }

// Inbox implements transport.Transport.
func (t *Transport) Inbox() <-chan transport.Envelope { return t.inner.Inbox() }

// SetResponseHandler implements transport.Transport: receiving is the
// inner transport's business, so it routes responses exactly as it
// would unwrapped.
func (t *Transport) SetResponseHandler(f func(*wire.Message)) { t.inner.SetResponseHandler(f) }

// Close implements transport.Transport. Frames still sitting in an
// injected delay are abandoned (a delayed frame racing a shutdown is
// indistinguishable from a drop, exactly like the in-memory fabric's
// late losses).
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return t.inner.Close()
}

// nextSeq returns the send ordinal for the link to 'to', starting at 0.
func (t *Transport) nextSeq(to identity.NodeID) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seq[to]
	t.seq[to] = n + 1
	return n
}

// drop records one injected loss.
func (t *Transport) drop(to identity.NodeID, kind wire.Kind, why events.DropReason) {
	if t.obs != nil {
		t.obs.OnMessageDropped(events.MessageDropped{
			From: t.Self(), To: to, Kind: uint8(kind), Reason: why,
		})
	}
}

// Send implements transport.Transport: schedule and seeded per-frame
// decisions first, then the surviving copies flow to the inner
// transport. Injected losses return nil — a radio frame lost mid-air
// reports nothing to the sender — while real inner-transport errors
// (unknown peer, backpressure, closed) surface unchanged on the
// undelayed path.
func (t *Transport) Send(ctx context.Context, to identity.NodeID, msg *wire.Message) error {
	self := t.Self()
	s := t.slot()
	switch {
	case t.plan.crashed(self, s), t.plan.crashed(to, s):
		t.drop(to, msg.Kind, events.DropCrash)
		return nil
	case t.plan.partitioned(self, to, s):
		t.drop(to, msg.Kind, events.DropPartition)
		return nil
	}
	st := frameStream(t.plan.Seed, self, to, t.nextSeq(to))
	if t.plan.DropRate > 0 && st.float() < t.plan.DropRate {
		t.drop(to, msg.Kind, events.DropInjected)
		return nil
	}
	delay := time.Duration(0)
	if t.plan.MaxDelay > 0 {
		delay = time.Duration(st.float() * float64(t.plan.MaxDelay))
	}
	var dupDelay time.Duration
	dup := t.plan.DuplicateRate > 0 && st.float() < t.plan.DuplicateRate
	if dup && t.plan.MaxDelay > 0 {
		dupDelay = time.Duration(st.float() * float64(t.plan.MaxDelay))
	}
	var err error
	if delay > 0 {
		t.sendLater(to, msg, delay)
	} else {
		err = t.inner.Send(ctx, to, msg)
	}
	if dup {
		if dupDelay > 0 {
			t.sendLater(to, msg, dupDelay)
		} else if cp, cerr := cloneMessage(msg); cerr == nil {
			// Idempotent receive upstream makes the copy harmless.
			_ = t.inner.Send(ctx, to, cp)
		}
	}
	return err
}

// sendLater delivers a copy of msg after d. The copy is taken now:
// callers may retarget or reuse msg the moment Send returns (the
// transport contract), so a delayed send cannot retain it.
func (t *Transport) sendLater(to identity.NodeID, msg *wire.Message, d time.Duration) {
	cp, err := cloneMessage(msg)
	if err != nil {
		t.drop(to, msg.Kind, events.DropInjected)
		return
	}
	kind := cp.Kind
	time.AfterFunc(d, func() {
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if err := t.inner.Send(context.Background(), to, cp); err != nil &&
			!errors.Is(err, transport.ErrClosed) {
			t.drop(to, kind, events.DropUnreachable)
		}
	})
}

// cloneMessage deep-copies a message through the codec, the same trick
// the in-memory fabric uses to keep sender and receiver memory
// disjoint.
func cloneMessage(msg *wire.Message) (*wire.Message, error) {
	return wire.Decode(msg.AppendEncode(make([]byte, 0, msg.WireSize())))
}
