package faults_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// recorder captures fault-layer events for assertions.
type recorder struct {
	events.Nop
	mu       sync.Mutex
	drops    []events.MessageDropped
	suspects []events.PeerSuspected
	recovers []events.PeerRecovered
	retries  []events.RetryAttempted
}

func (r *recorder) OnMessageDropped(e events.MessageDropped) {
	r.mu.Lock()
	r.drops = append(r.drops, e)
	r.mu.Unlock()
}

func (r *recorder) OnPeerSuspected(e events.PeerSuspected) {
	r.mu.Lock()
	r.suspects = append(r.suspects, e)
	r.mu.Unlock()
}

func (r *recorder) OnPeerRecovered(e events.PeerRecovered) {
	r.mu.Lock()
	r.recovers = append(r.recovers, e)
	r.mu.Unlock()
}

func (r *recorder) OnRetryAttempted(e events.RetryAttempted) {
	r.mu.Lock()
	r.retries = append(r.retries, e)
	r.mu.Unlock()
}

func (r *recorder) dropReasons() []events.DropReason {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]events.DropReason, len(r.drops))
	for i, d := range r.drops {
		out[i] = d.Reason
	}
	return out
}

// announce builds a distinct digest announcement for ordinal i.
func announce(from, to identity.NodeID, i uint64) *wire.Message {
	return wire.NewDigestAnnounce(from, to, digest.Sum([]byte{byte(i), byte(i >> 8)}), i)
}

// collectNonces drains an inbox until it stays quiet, returning the
// nonce sequence of delivered frames.
func collectNonces(inbox <-chan transport.Envelope, quiet time.Duration) []uint64 {
	var nonces []uint64
	for {
		select {
		case env, ok := <-inbox:
			if !ok {
				return nonces
			}
			nonces = append(nonces, env.Msg.Nonce)
		case <-time.After(quiet):
			return nonces
		}
	}
}

func TestPlanZeroValueIsInactive(t *testing.T) {
	var p faults.Plan
	if p.Active() {
		t.Fatal("zero plan reports active")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("zero plan invalid: %v", err)
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan faults.Plan
	}{
		{"negative drop rate", faults.Plan{DropRate: -0.1}},
		{"drop rate above one", faults.Plan{DropRate: 1.5}},
		{"negative duplicate rate", faults.Plan{DuplicateRate: -0.1}},
		{"duplicate rate above one", faults.Plan{DuplicateRate: 2}},
		{"negative delay", faults.Plan{MaxDelay: -time.Millisecond}},
		{"empty partition window", faults.Plan{Partitions: []faults.Partition{
			{From: 5, Until: 5, SideA: []identity.NodeID{1}, SideB: []identity.NodeID{2}},
		}}},
		{"empty partition side", faults.Plan{Partitions: []faults.Partition{
			{From: 1, Until: 2, SideA: []identity.NodeID{1}},
		}}},
		{"empty crash window", faults.Plan{Crashes: []faults.CrashWindow{
			{Node: 1, From: 3, Until: 3},
		}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the plan", tc.name)
		}
	}
}

// TestSeededDropsReplayIdentically: two independent runs of the same
// plan over the same send sequence lose exactly the same frames.
func TestSeededDropsReplayIdentically(t *testing.T) {
	plan := faults.Plan{Seed: 7, DropRate: 0.5}
	run := func() []uint64 {
		netw := transport.NewNetwork()
		defer netw.Close()
		ep1, _ := netw.Endpoint(1)
		ep2, _ := netw.Endpoint(2)
		ft := faults.Wrap(ep1, plan, nil, nil)
		ctx := context.Background()
		for i := uint64(0); i < 200; i++ {
			if err := ft.Send(ctx, 2, announce(1, 2, i)); err != nil {
				t.Fatal(err)
			}
		}
		return collectNonces(ep2.Inbox(), 50*time.Millisecond)
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == 200 {
		t.Fatalf("drop rate 0.5 delivered %d of 200 frames", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("replay diverged: %d vs %d deliveries", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at delivery %d: nonce %d vs %d", i, first[i], second[i])
		}
	}
}

// TestSeededDropsReplayAcrossFabrics: the same plan injects the same
// losses whether the wrapped transport is the in-memory fabric or TCP.
func TestSeededDropsReplayAcrossFabrics(t *testing.T) {
	plan := faults.Plan{Seed: 11, DropRate: 0.4}
	ctx := context.Background()

	netw := transport.NewNetwork()
	defer netw.Close()
	ep1, _ := netw.Endpoint(1)
	ep2, _ := netw.Endpoint(2)
	ftMem := faults.Wrap(ep1, plan, nil, nil)
	for i := uint64(0); i < 200; i++ {
		if err := ftMem.Send(ctx, 2, announce(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	mem := collectNonces(ep2.Inbox(), 50*time.Millisecond)

	tn1, err := transport.ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tn1.Close()
	tn2, err := transport.ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tn2.Close()
	tn1.SetPeer(2, tn2.Addr())
	ftTCP := faults.Wrap(tn1, plan, nil, nil)
	for i := uint64(0); i < 200; i++ {
		if err := ftTCP.Send(ctx, 2, announce(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	tcp := collectNonces(tn2.Inbox(), 200*time.Millisecond)

	if len(mem) != len(tcp) {
		t.Fatalf("fabrics diverged: inmem delivered %d, tcp %d", len(mem), len(tcp))
	}
	for i := range mem {
		if mem[i] != tcp[i] {
			t.Fatalf("fabrics diverged at delivery %d: nonce %d vs %d", i, mem[i], tcp[i])
		}
	}
}

// TestPartitionCutsAndHeals: a scheduled partition drops cross-side
// frames exactly during [From, Until), leaves intra-side traffic
// alone, and heals at Until.
func TestPartitionCutsAndHeals(t *testing.T) {
	var slot atomic.Uint32
	rec := &recorder{}
	plan := faults.Plan{Partitions: []faults.Partition{
		{From: 1, Until: 2, SideA: []identity.NodeID{1}, SideB: []identity.NodeID{2}},
	}}
	netw := transport.NewNetwork()
	defer netw.Close()
	ep1, _ := netw.Endpoint(1)
	ep2, _ := netw.Endpoint(2)
	ep3, _ := netw.Endpoint(3)
	ft := faults.Wrap(ep1, plan, slot.Load, rec)
	ctx := context.Background()

	send := func(to identity.NodeID, i uint64) {
		t.Helper()
		if err := ft.Send(ctx, to, announce(1, to, i)); err != nil {
			t.Fatal(err)
		}
	}
	send(2, 0) // slot 0: before the partition
	slot.Store(1)
	send(2, 1) // slot 1: cut
	send(3, 2) // slot 1: node 3 is on neither side — unaffected
	slot.Store(2)
	send(2, 3) // slot 2: healed

	got := collectNonces(ep2.Inbox(), 50*time.Millisecond)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("partitioned link delivered nonces %v, want [0 3]", got)
	}
	side := collectNonces(ep3.Inbox(), 50*time.Millisecond)
	if len(side) != 1 || side[0] != 2 {
		t.Fatalf("intra-side link delivered nonces %v, want [2]", side)
	}
	reasons := rec.dropReasons()
	if len(reasons) != 1 || reasons[0] != events.DropPartition {
		t.Fatalf("drop reasons %v, want one DropPartition", reasons)
	}
}

// TestCrashWindowSilencesBothDirections: a crashed node neither sends
// nor receives during its window and resumes afterwards with no
// residue.
func TestCrashWindowSilencesBothDirections(t *testing.T) {
	var slot atomic.Uint32
	rec := &recorder{}
	plan := faults.Plan{Crashes: []faults.CrashWindow{{Node: 2, From: 1, Until: 2}}}
	netw := transport.NewNetwork()
	defer netw.Close()
	ep1, _ := netw.Endpoint(1)
	ep2, _ := netw.Endpoint(2)
	ft1 := faults.Wrap(ep1, plan, slot.Load, rec)
	ft2 := faults.Wrap(ep2, plan, slot.Load, rec)
	ctx := context.Background()

	slot.Store(1)
	if err := ft1.Send(ctx, 2, announce(1, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if err := ft2.Send(ctx, 1, announce(2, 1, 20)); err != nil {
		t.Fatal(err)
	}
	slot.Store(2)
	if err := ft1.Send(ctx, 2, announce(1, 2, 11)); err != nil {
		t.Fatal(err)
	}
	if err := ft2.Send(ctx, 1, announce(2, 1, 21)); err != nil {
		t.Fatal(err)
	}

	to2 := collectNonces(ep2.Inbox(), 50*time.Millisecond)
	if len(to2) != 1 || to2[0] != 11 {
		t.Fatalf("crashed receiver got nonces %v, want [11]", to2)
	}
	to1 := collectNonces(ep1.Inbox(), 50*time.Millisecond)
	if len(to1) != 1 || to1[0] != 21 {
		t.Fatalf("crashed sender delivered nonces %v, want [21]", to1)
	}
	reasons := rec.dropReasons()
	if len(reasons) != 2 {
		t.Fatalf("drops %v, want two DropCrash", reasons)
	}
	for _, r := range reasons {
		if r != events.DropCrash {
			t.Fatalf("drop reason %v, want DropCrash", r)
		}
	}
}

// TestDuplicateRateDeliversTwice: DuplicateRate 1 with no delay turns
// every send into exactly two identical deliveries.
func TestDuplicateRateDeliversTwice(t *testing.T) {
	plan := faults.Plan{Seed: 3, DuplicateRate: 1}
	netw := transport.NewNetwork()
	defer netw.Close()
	ep1, _ := netw.Endpoint(1)
	ep2, _ := netw.Endpoint(2)
	ft := faults.Wrap(ep1, plan, nil, nil)
	ctx := context.Background()
	for i := uint64(0); i < 5; i++ {
		if err := ft.Send(ctx, 2, announce(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	got := collectNonces(ep2.Inbox(), 50*time.Millisecond)
	want := []uint64{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	if len(got) != len(want) {
		t.Fatalf("delivered %d frames, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery sequence %v, want %v", got, want)
		}
	}
}

// TestDelayedFramesAllArrive: a pure-delay plan reorders but never
// loses — every frame lands within the delay bound.
func TestDelayedFramesAllArrive(t *testing.T) {
	plan := faults.Plan{Seed: 5, MaxDelay: 3 * time.Millisecond}
	netw := transport.NewNetwork()
	defer netw.Close()
	ep1, _ := netw.Endpoint(1)
	ep2, _ := netw.Endpoint(2)
	ft := faults.Wrap(ep1, plan, nil, nil)
	ctx := context.Background()
	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := ft.Send(ctx, 2, announce(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool, n)
	deadline := time.After(2 * time.Second)
	for len(seen) < n {
		select {
		case env := <-ep2.Inbox():
			seen[env.Msg.Nonce] = true
		case <-deadline:
			t.Fatalf("only %d of %d delayed frames arrived", len(seen), n)
		}
	}
}

// TestWrapperPassesInnerErrors: real transport errors on the undelayed
// path surface unchanged through the fault layer.
func TestWrapperPassesInnerErrors(t *testing.T) {
	netw := transport.NewNetwork()
	defer netw.Close()
	ep1, _ := netw.Endpoint(1)
	ft := faults.Wrap(ep1, faults.Plan{Seed: 1}, nil, nil)
	err := ft.Send(context.Background(), 99, announce(1, 99, 0))
	if !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("unknown peer error = %v, want ErrUnknownPeer", err)
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	err = ft.Send(context.Background(), 1, announce(1, 1, 1))
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

// TestDuplicatedRepliesCompleteEachCallOnce: both RPCs sit on wrapped
// transports whose plan delivers every frame twice, the copy up to a
// few milliseconds late — so every request is served twice and every
// reply arrives twice, the second often after its call returned and its
// reply channel went on to serve another call. The wrapper forwards
// response routing to the fabric underneath, and no call may be handed
// a reply it did not issue.
func TestDuplicatedRepliesCompleteEachCallOnce(t *testing.T) {
	plan := faults.Plan{Seed: 11, DuplicateRate: 1, MaxDelay: 2 * time.Millisecond}
	netw := transport.NewNetwork()
	defer netw.Close()
	ep1, _ := netw.Endpoint(1)
	ep2, _ := netw.Endpoint(2)
	ctx := context.Background()

	var responder *transport.RPC
	responder = transport.NewRPC(faults.Wrap(ep2, plan, nil, nil), func(env transport.Envelope) {
		reply := wire.NewNotFound(env.Msg)
		reply.Digest = env.Msg.Digest // lets the caller tell whose reply it got
		_ = responder.Transport().Send(ctx, env.From, reply)
	}, time.Second)
	defer responder.Close()
	caller := transport.NewRPC(faults.Wrap(ep1, plan, nil, nil), func(env transport.Envelope) {
		t.Errorf("caller's handler saw %v corr=%d", env.Msg.Kind, env.Msg.Corr)
	}, 2*time.Second)
	defer caller.Close()

	const workers, calls = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				tag := digest.Sum([]byte{byte(w), byte(i)})
				var issued uint64
				resp, err := caller.Call(ctx, 2, func(corr, nonce uint64) *wire.Message {
					issued = corr
					return wire.NewReqChild(1, 2, tag, corr, nonce)
				})
				if err != nil {
					t.Errorf("call %d/%d: %v", w, i, err)
				} else if resp.Corr != issued || resp.Digest != tag {
					t.Errorf("call %d/%d (corr %d) was handed the reply to corr %d", w, i, issued, resp.Corr)
				}
			}
		}(w)
	}
	wg.Wait()
}
