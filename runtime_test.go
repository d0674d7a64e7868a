package twoldag

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/wire"
)

// baseOptions are shared by both drivers in the equivalence tests:
// identical options must build identical deployments.
func baseOptions(nodes, gamma int) []Option {
	return []Option{
		WithNodes(nodes),
		WithGamma(gamma),
		WithSeed(7),
		WithDifficulty(2),
		WithRequestTimeout(2 * time.Second),
	}
}

func newRuntime(t *testing.T, opts ...Option) Runtime {
	t.Helper()
	rt, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// fillBatch drives identical per-slot batches into a runtime and
// returns every ref.
func fillBatch(t *testing.T, rt Runtime, slots int) []Ref {
	t.Helper()
	refs, err := fillSlots(rt, slots)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// fillSlots is fillBatch reporting its failure as an error, for runs
// on a goroutine other than the test's.
func fillSlots(rt Runtime, slots int) ([]Ref, error) {
	var refs []Ref
	for s := 0; s < slots; s++ {
		rt.AdvanceSlot()
		ids := rt.Nodes()
		batch := make([]Submission, len(ids))
		for i, id := range ids {
			batch[i] = Submission{Node: id, Data: []byte(fmt.Sprintf("reading %v@%d", id, s))}
		}
		got, err := rt.SubmitBatch(context.Background(), batch)
		if err != nil {
			return refs, fmt.Errorf("SubmitBatch slot %d: %w", s, err)
		}
		refs = append(refs, got...)
	}
	return refs, nil
}

// TestDriverEquivalence: the same seed and options, driven with the
// same submissions and audits, yield the same refs, the same sealed
// headers and, audit by audit, the same verdicts, cost counters,
// vouchers and paths through the live driver and the simulator.
func TestDriverEquivalence(t *testing.T) {
	const nodes, gamma, slots = 10, 2, 4
	live := newRuntime(t, baseOptions(nodes, gamma)...)
	simr := newRuntime(t, append(baseOptions(nodes, gamma), WithSimulator())...)

	if lt, st := live.Topology().Summary(), simr.Topology().Summary(); lt != st {
		t.Fatalf("topologies diverge: live %+v sim %+v", lt, st)
	}

	liveRefs := fillBatch(t, live, slots)
	simRefs := fillBatch(t, simr, slots)
	if len(liveRefs) != len(simRefs) {
		t.Fatalf("ref counts diverge: %d vs %d", len(liveRefs), len(simRefs))
	}
	for i := range liveRefs {
		if liveRefs[i] != simRefs[i] {
			t.Fatalf("ref %d diverges: %v vs %v", i, liveRefs[i], simRefs[i])
		}
		lb, err := live.Block(liveRefs[i])
		if err != nil {
			t.Fatalf("live block %v: %v", liveRefs[i], err)
		}
		sb, err := simr.Block(simRefs[i])
		if err != nil {
			t.Fatalf("sim block %v: %v", simRefs[i], err)
		}
		if lb.Header.Hash() != sb.Header.Hash() {
			t.Fatalf("block %v sealed differently across drivers", liveRefs[i])
		}
	}

	// Audit a spread of old blocks from several validators. Both
	// drivers break selection ties by the same stateless rule, so each
	// audit must take the same path with the same messages, not only
	// reach the same verdict.
	ctx := context.Background()
	ids := live.Nodes()
	consensuses := 0
	for k := 0; k < 30; k++ {
		target := liveRefs[(k*7)%(len(liveRefs)/2)]
		validator := ids[(k*3)%len(ids)]
		if validator == target.Node {
			validator = ids[(k*3+1)%len(ids)]
		}
		lres, lerr := live.Audit(ctx, validator, target)
		sres, serr := simr.Audit(ctx, validator, target)
		if (lerr == nil) != (serr == nil) || errors.Is(lerr, ErrNoConsensus) != errors.Is(serr, ErrNoConsensus) {
			t.Fatalf("audit %v by %v: errors diverge: live %v, sim %v", target, validator, lerr, serr)
		}
		if lres == nil || sres == nil {
			continue
		}
		if diff := auditDiff(lres, sres); diff != "" {
			t.Errorf("audit %v by %v diverges (live vs sim): %s", target, validator, diff)
		}
		if lres.Consensus {
			consensuses++
		}
	}
	if consensuses == 0 {
		t.Fatal("no audit reached consensus on either driver; test has no power")
	}

	// A block with no descendants is unverifiable on both drivers, with
	// the same sentinel.
	live.AdvanceSlot()
	simr.AdvanceSlot()
	fresh, err := live.Submit(ctx, ids[0], []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	sfresh, err := simr.Submit(ctx, ids[0], []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh != sfresh {
		t.Fatalf("fresh refs diverge: %v vs %v", fresh, sfresh)
	}
	if _, err := live.Audit(ctx, ids[1], fresh); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("live: want ErrNoConsensus, got %v", err)
	}
	if _, err := simr.Audit(ctx, ids[1], sfresh); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("sim: want ErrNoConsensus, got %v", err)
	}
}

// auditDiff names the first way two results of one audit differ: the
// verdict, a cost counter, the voucher list or a path step's (node,
// header hash). It is empty when they agree.
func auditDiff(a, b *AuditResult) string {
	type counts struct {
		Consensus, UnionFallback                                            bool
		Sent, Received, Fetched, TrustHits, Rollbacks, Timeouts, PathLength int
	}
	of := func(r *AuditResult) counts {
		return counts{r.Consensus, r.UnionFallback, r.MessagesSent, r.MessagesReceived,
			r.HeadersFetched, r.TrustHits, r.Rollbacks, r.Timeouts, len(r.Path)}
	}
	if ca, cb := of(a), of(b); ca != cb {
		return fmt.Sprintf("%+v vs %+v", ca, cb)
	}
	if !slices.Equal(a.Vouchers, b.Vouchers) {
		return fmt.Sprintf("vouchers %v vs %v", a.Vouchers, b.Vouchers)
	}
	for i := range a.Path {
		sa, sb := a.Path[i], b.Path[i]
		if sa.Node != sb.Node || sa.HeaderHash != sb.HeaderHash {
			return fmt.Sprintf("path step %d: %v %v vs %v %v", i, sa.Node, sa.HeaderHash.Short(), sb.Node, sb.HeaderHash.Short())
		}
	}
	return ""
}

// fillSingleton drives the same per-slot submissions as fillBatch but
// one Submit at a time — one one-digest flush per block.
func fillSingleton(t *testing.T, rt Runtime, slots int) []Ref {
	t.Helper()
	ctx := context.Background()
	var refs []Ref
	for s := 0; s < slots; s++ {
		rt.AdvanceSlot()
		for _, id := range rt.Nodes() {
			ref, err := rt.Submit(ctx, id, []byte(fmt.Sprintf("reading %v@%d", id, s)))
			if err != nil {
				t.Fatalf("Submit %v slot %d: %v", id, s, err)
			}
			refs = append(refs, ref)
		}
	}
	return refs
}

// TestBatchedAndSingletonDeliveryEquivalent extends the
// driver-equivalence guarantee to the batched announcement pipeline:
// on each driver, a deployment driven with per-slot SubmitBatch (one
// flush per slot) and an identical deployment driven with one Submit
// per block (one flush per block, each announced and acknowledged
// before the next block is sealed) must seal the same refs and reach
// the same audit consensus outcomes.
func TestBatchedAndSingletonDeliveryEquivalent(t *testing.T) {
	const nodes, gamma, slots = 10, 2, 4
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"live", baseOptions(nodes, gamma)},
		{"sim", append(baseOptions(nodes, gamma), WithSimulator())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batched := newRuntime(t, tc.opts...)
			singleton := newRuntime(t, tc.opts...)
			bRefs := fillBatch(t, batched, slots)
			sRefs := fillSingleton(t, singleton, slots)
			if len(bRefs) != len(sRefs) {
				t.Fatalf("ref counts diverge: batched %d, singleton %d", len(bRefs), len(sRefs))
			}
			for i := range bRefs {
				if bRefs[i] != sRefs[i] {
					t.Fatalf("ref %d diverges: batched %v, singleton %v", i, bRefs[i], sRefs[i])
				}
			}
			ctx := context.Background()
			ids := batched.Nodes()
			consensuses := 0
			for k := 0; k < 6; k++ {
				target := bRefs[(k*3)%(len(bRefs)/2)]
				validator := ids[(k*5)%len(ids)]
				if validator == target.Node {
					validator = ids[(k*5+1)%len(ids)]
				}
				bres, berr := batched.Audit(ctx, validator, target)
				sres, serr := singleton.Audit(ctx, validator, target)
				if (berr == nil) != (serr == nil) || errors.Is(berr, ErrNoConsensus) != errors.Is(serr, ErrNoConsensus) {
					t.Fatalf("audit %v by %v: errors diverge: batched %v, singleton %v", target, validator, berr, serr)
				}
				if berr != nil {
					continue
				}
				if bres.Consensus != sres.Consensus {
					t.Fatalf("audit %v by %v: consensus diverges: batched %v, singleton %v",
						target, validator, bres.Consensus, sres.Consensus)
				}
				if bres.Consensus {
					consensuses++
				}
			}
			if consensuses == 0 {
				t.Fatal("no audit reached consensus on either path; test has no power")
			}
		})
	}
}

// TestSubmitBatchCoalescesPerSender pins the wire-level batching on
// the live driver: several blocks from the same sender in one
// SubmitBatch arrive at each neighbor as one DigestBatch frame (one
// receiver-side batch delivery), not one frame per block.
func TestSubmitBatchCoalescesPerSender(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"inmem", baseOptions(8, 1)},
		{"tcp", append(baseOptions(8, 1), WithTransport(TCP))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &countingObserver{}
			rt := newRuntime(t, append(tc.opts, WithObserver(obs))...)
			ids := rt.Nodes()
			rt.AdvanceSlot()
			const perSender = 3
			var batch []Submission
			for i := 0; i < perSender; i++ {
				batch = append(batch, Submission{Node: ids[0], Data: []byte(fmt.Sprintf("run %d", i))})
			}
			refs, err := rt.SubmitBatch(context.Background(), batch)
			if err != nil {
				t.Fatalf("SubmitBatch: %v", err)
			}
			if len(refs) != perSender {
				t.Fatalf("got %d refs, want %d", len(refs), perSender)
			}
			neighbors := len(rt.Topology().Neighbors(ids[0]))
			if neighbors == 0 {
				t.Fatal("sender has no neighbors; test has no power")
			}
			if got := obs.batches.Load(); got != int64(neighbors) {
				t.Fatalf("batch deliveries: got %d, want one per neighbor (%d)", got, neighbors)
			}
			if got := obs.announced.Load(); got != int64(neighbors*perSender) {
				t.Fatalf("accepted deliveries: got %d, want %d", got, neighbors*perSender)
			}
		})
	}
}

// TestAnnouncementsTravelAsBatches: on the live driver every
// announcement frame on the fabric is a DigestBatch, one per (sender,
// neighbor) pair per flush — for a slot of one block per device and
// for a one-block Submit alike; no DigestAnnounce frame is ever sent.
func TestAnnouncementsTravelAsBatches(t *testing.T) {
	rt := newRuntime(t, baseOptions(8, 1)...)
	var mu sync.Mutex
	kinds := map[wire.Kind]int{}
	rt.(*Cluster).fab.(*memFabric).net.SetDrop(func(_, _ NodeID, m *wire.Message) bool {
		mu.Lock()
		kinds[m.Kind]++
		mu.Unlock()
		return false
	})
	fillBatch(t, rt, 1)
	ids := rt.Nodes()
	rt.AdvanceSlot()
	if _, err := rt.Submit(context.Background(), ids[0], []byte("one block")); err != nil {
		t.Fatal(err)
	}
	links := len(rt.Topology().Neighbors(ids[0]))
	for _, id := range ids {
		links += len(rt.Topology().Neighbors(id))
	}
	mu.Lock()
	defer mu.Unlock()
	if kinds[wire.KindDigestAnnounce] != 0 || kinds[wire.KindDigestBatch] != links {
		t.Fatalf("%d DigestAnnounce and %d DigestBatch frames, want 0 and %d",
			kinds[wire.KindDigestAnnounce], kinds[wire.KindDigestBatch], links)
	}
}

// TestAuditManyBothDrivers exercises the worker-pool fan-out on each
// driver: outcomes arrive in request order, carry their request, and
// agree with one-at-a-time audits.
func TestAuditManyBothDrivers(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"live", baseOptions(10, 2)},
		{"sim", append(baseOptions(10, 2), WithSimulator())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setGOMAXPROCS(t, 4)
			rt := newRuntime(t, tc.opts...)
			refs := fillBatch(t, rt, 4)
			ids := rt.Nodes()
			var reqs []AuditRequest
			for k := 0; k < 8; k++ {
				target := refs[k%(len(refs)/2)]
				validator := ids[(k*3)%len(ids)]
				if validator == target.Node {
					validator = ids[((k*3)+1)%len(ids)]
				}
				reqs = append(reqs, AuditRequest{Validator: validator, Ref: target})
			}
			outs := rt.AuditMany(context.Background(), reqs)
			if len(outs) != len(reqs) {
				t.Fatalf("got %d outcomes for %d requests", len(outs), len(reqs))
			}
			okCount := 0
			for i, out := range outs {
				if out.Request != reqs[i] {
					t.Fatalf("outcome %d out of order: %+v", i, out.Request)
				}
				if out.Err == nil && out.Result.Consensus {
					okCount++
				}
			}
			if okCount == 0 {
				t.Fatal("no audit in the batch reached consensus")
			}
		})
	}
}

// TestSubmitRespectsContextDeadline pins the satellite fix: the submit
// acknowledgement wait honors the caller's context instead of a
// hardcoded wall clock.
func TestSubmitRespectsContextDeadline(t *testing.T) {
	rt := newRuntime(t, baseOptions(6, 1)...)
	rt.AdvanceSlot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	if _, err := rt.Submit(ctx, rt.Nodes()[0], []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// countingObserver tallies the typed event stream. announced counts
// accepted digest deliveries, however many digests each delivery
// carried — matching EventCounters semantics.
type countingObserver struct {
	NopObserver
	sealed, announced, batches, hops, ok, failed atomic.Int64
}

func (o *countingObserver) OnBlockSealed(BlockSealed) { o.sealed.Add(1) }
func (o *countingObserver) OnDigestBatchDelivered(e DigestBatchDelivered) {
	o.batches.Add(1)
	o.announced.Add(int64(len(e.Digests)))
}
func (o *countingObserver) OnAuditHop(AuditHop)                 { o.hops.Add(1) }
func (o *countingObserver) OnConsensusReached(ConsensusReached) { o.ok.Add(1) }
func (o *countingObserver) OnAuditFailed(AuditFailed)           { o.failed.Add(1) }

// TestObserverStreamsBothDrivers checks that both drivers emit the
// same kinds of events at the same protocol moments.
func TestObserverStreamsBothDrivers(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"live", baseOptions(8, 1)},
		{"sim", append(baseOptions(8, 1), WithSimulator())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &countingObserver{}
			rt := newRuntime(t, append(tc.opts, WithObserver(obs))...)
			refs := fillBatch(t, rt, 3)
			if got := obs.sealed.Load(); got != int64(len(refs)) {
				t.Fatalf("BlockSealed events: got %d, want %d", got, len(refs))
			}
			if obs.announced.Load() == 0 {
				t.Fatal("no DigestBatchDelivered events")
			}
			ids := rt.Nodes()
			res, err := rt.Audit(context.Background(), ids[len(ids)-1], refs[0])
			if err != nil || !res.Consensus {
				t.Fatalf("audit: %v", err)
			}
			if obs.ok.Load() != 1 {
				t.Fatalf("ConsensusReached events: got %d, want 1", obs.ok.Load())
			}
			if obs.hops.Load() == 0 {
				t.Fatal("no AuditHop events")
			}
			// A fresh, descendant-less block fails: AuditFailed must fire.
			rt.AdvanceSlot()
			fresh, err := rt.Submit(context.Background(), ids[0], []byte("fresh"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Audit(context.Background(), ids[1], fresh); !errors.Is(err, ErrNoConsensus) {
				t.Fatalf("want ErrNoConsensus, got %v", err)
			}
			if obs.failed.Load() != 1 {
				t.Fatalf("AuditFailed events: got %d, want 1", obs.failed.Load())
			}
		})
	}
}

// TestTCPTransportRuntime smoke-tests the publicly selectable TCP
// fabric end to end: submissions acknowledge and audits reach
// consensus over real sockets.
func TestTCPTransportRuntime(t *testing.T) {
	rt := newRuntime(t, append(baseOptions(8, 1), WithTransport(TCP))...)
	refs := fillBatch(t, rt, 3)
	ids := rt.Nodes()
	res, err := rt.Audit(context.Background(), ids[len(ids)-1], refs[0])
	if err != nil {
		t.Fatalf("audit over TCP: %v", err)
	}
	if !res.Consensus {
		t.Fatal("no consensus over TCP")
	}
}

// TestSimDriverReportCoversEverySlot pins the externally driven
// report series: driving N slots through the Runtime verbs must yield
// N per-slot samples, including the final slot that no AdvanceSlot
// follows.
func TestSimDriverReportCoversEverySlot(t *testing.T) {
	const slots = 4
	rt := newRuntime(t, append(baseOptions(8, 1), WithSimulator())...)
	refs := fillBatch(t, rt, slots)
	rep := rt.(*SimDriver).Report()
	if got := len(rep.AvgStorageBits); got != slots {
		t.Fatalf("storage series has %d samples, want %d", got, slots)
	}
	if rep.Blocks != len(refs) {
		t.Fatalf("report counts %d blocks, want %d", rep.Blocks, len(refs))
	}
	// The final slot's submissions must be in the last sample: storage
	// strictly grows while every node keeps appending blocks.
	last, prev := rep.AvgStorageBits[slots-1], rep.AvgStorageBits[slots-2]
	if last <= prev {
		t.Fatalf("final-slot sample %d not ahead of previous %d", last, prev)
	}
	// Finalize is idempotent: a second Report must not append samples.
	if again := rt.(*SimDriver).Report(); len(again.AvgStorageBits) != slots {
		t.Fatalf("second Report grew the series to %d samples", len(again.AvgStorageBits))
	}
}

// TestOptionValidation covers the cross-field checks New enforces.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"no nodes", []Option{WithGamma(1)}},
		{"negative nodes", []Option{WithNodes(-1)}},
		{"gamma too high", []Option{WithNodes(5), WithGamma(5)}},
		{"negative gamma", []Option{WithNodes(5), WithGamma(-1)}},
		{"malicious on live driver", []Option{WithNodes(5), WithGamma(1), WithMalicious(2)}},
		{"tcp on simulator", []Option{WithNodes(5), WithGamma(1), WithSimulator(), WithTransport(TCP)}},
		{"nil observer", []Option{WithNodes(5), WithObserver(nil)}},
		{"zero timeout", []Option{WithNodes(5), WithRequestTimeout(0)}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSimReportIndependentOfGOMAXPROCS pins the simulator's scheduling
// contract: a SimDriver.RunSlots report does not depend on the fan-out
// width.
func TestSimReportIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) *SimReport {
		t.Helper()
		setGOMAXPROCS(t, procs)
		rt := newRuntime(t,
			WithSimulator(), WithNodes(12), WithGamma(3), WithSeed(7),
			WithDifficulty(0), WithBodyBytes(100_000), WithMalicious(2),
		)
		sd := rt.(*SimDriver)
		if err := sd.RunSlots(25); err != nil {
			t.Fatal(err)
		}
		return sd.Report()
	}
	serial, parallel := run(1), run(4)
	if serial.Audits == 0 {
		t.Fatal("no audits ran")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("report depends on GOMAXPROCS:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=4: %+v", serial, parallel)
	}
}
