package twoldag

import (
	"context"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/metrics"
)

// The chaos equivalence suite: seeded fault plans within the
// protocol's tolerance — recoverable drops, delays and duplicates
// during submission slots; partitions and crash windows confined to
// audit-only slots — must leave sealed-header hashes and audit
// consensus outcomes identical to the fault-free run, on both the
// in-memory and TCP fabrics. The retry layer is what closes the gap:
// announcement acknowledgements drive targeted re-transmission, so
// every digest still lands before the next slot seals against it.

const chaosNodes = 8

// chaosVictim is the node the partition and crash plans take off the
// air during the audit-only slot. It is none of the audit validators
// or targets, so consensus must route around it.
const chaosVictim = NodeID(5)

// chaosRetry is the retry policy every chaos run uses: enough
// attempts that a seeded drop of an announcement frame and its first
// retries never exhausts the budget, with backoffs that fit inside
// the 250ms acknowledgement deadline.
func chaosRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Jitter: 0.5, Seed: 7}
}

// chaosPlans are the seeded fault schedules under test. Slots 1–3 and
// 5 submit; slots 4 and 6 are audit-only, which is where the
// partition and the crash are scheduled (a node dark during a submit
// slot would stall that slot's acknowledgement barrier by design).
func chaosPlans() map[string]FaultPlan {
	return map[string]FaultPlan{
		"drops+delays+dups": {
			Seed:          101,
			DropRate:      0.08,
			DuplicateRate: 0.10,
			MaxDelay:      2 * time.Millisecond,
		},
		"healed partition": {
			Seed:     102,
			DropRate: 0.03,
			MaxDelay: time.Millisecond,
			Partitions: []FaultPartition{{
				From: 4, Until: 5,
				SideA: []NodeID{chaosVictim},
				SideB: []NodeID{0, 1, 2, 3, 4, 6, 7},
			}},
		},
		"crash+restart": {
			Seed:     103,
			DropRate: 0.03,
			MaxDelay: time.Millisecond,
			Crashes:  []CrashWindow{{Node: chaosVictim, From: 4, Until: 5}},
		},
	}
}

// chaosRun is one scenario's observable outcome: every sealed header
// hash in submission order, and every audit's consensus verdict.
type chaosRun struct {
	hashes   []Digest
	outcomes []bool
}

// runChaosScenario drives the fixed workload — three submit slots, an
// audit-only slot, a post-heal submit slot, a final audit-only slot —
// against a live cluster on the given fabric under the given plan.
func runChaosScenario(t *testing.T, kind TransportKind, plan FaultPlan, retry RetryPolicy, extra ...Option) chaosRun {
	t.Helper()
	opts := []Option{
		WithNodes(chaosNodes),
		WithSeed(7),
		WithGamma(1),
		WithDifficulty(2),
		WithTransport(kind),
		WithRequestTimeout(250 * time.Millisecond),
	}
	if plan.Active() {
		opts = append(opts, WithFaults(plan))
	}
	if retry.Enabled() {
		opts = append(opts, WithRetryPolicy(retry))
	}
	opts = append(opts, extra...)
	rt, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()

	ids := rt.Nodes()
	if len(ids) != chaosNodes || ids[0] != 0 || ids[len(ids)-1] != chaosNodes-1 {
		t.Fatalf("generated IDs %v, plans assume 0..%d", ids, chaosNodes-1)
	}
	ctx := context.Background()
	var run chaosRun

	submitAll := func(tag byte) {
		t.Helper()
		rt.AdvanceSlot()
		batch := make([]Submission, len(ids))
		for i, id := range ids {
			batch[i] = Submission{Node: id, Data: []byte{tag, byte(id)}}
		}
		refs, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			t.Fatalf("SubmitBatch at slot %d: %v", rt.Slot(), err)
		}
		for _, ref := range refs {
			b, err := rt.Block(ref)
			if err != nil {
				t.Fatalf("Block(%v): %v", ref, err)
			}
			run.hashes = append(run.hashes, b.Header.Hash())
		}
	}
	auditAll := func() {
		t.Helper()
		for _, req := range []AuditRequest{
			{Validator: 7, Ref: Ref{Node: 0, Seq: 1}},
			{Validator: 1, Ref: Ref{Node: 4, Seq: 1}},
		} {
			res, err := rt.Audit(ctx, req.Validator, req.Ref)
			run.outcomes = append(run.outcomes, err == nil && res != nil && res.Consensus)
		}
	}

	submitAll(1) // slot 1: genesis
	submitAll(2) // slot 2
	submitAll(3) // slot 3
	rt.AdvanceSlot()
	auditAll() // slot 4: audit-only — partitions/crashes strike here
	submitAll(5)
	rt.AdvanceSlot()
	auditAll() // slot 6: after the heal, the victim serves again
	return run
}

// assertChaosEquivalent fails unless the chaos run matches the
// fault-free run observation for observation.
func assertChaosEquivalent(t *testing.T, name string, faultFree, chaos chaosRun) {
	t.Helper()
	if len(chaos.hashes) != len(faultFree.hashes) {
		t.Fatalf("%s: sealed %d blocks, fault-free sealed %d", name, len(chaos.hashes), len(faultFree.hashes))
	}
	for i := range faultFree.hashes {
		if chaos.hashes[i] != faultFree.hashes[i] {
			t.Errorf("%s: sealed header %d diverged from the fault-free run", name, i)
		}
	}
	if len(chaos.outcomes) != len(faultFree.outcomes) {
		t.Fatalf("%s: %d audits ran, fault-free ran %d", name, len(chaos.outcomes), len(faultFree.outcomes))
	}
	for i := range faultFree.outcomes {
		if chaos.outcomes[i] != faultFree.outcomes[i] {
			t.Errorf("%s: audit %d consensus %v, fault-free %v", name, i, chaos.outcomes[i], faultFree.outcomes[i])
		}
	}
}

// TestChaosEquivalence proves the headline robustness property on both
// fabrics: every in-tolerance fault plan yields the exact sealed
// headers and audit verdicts of the fault-free run.
func TestChaosEquivalence(t *testing.T) {
	for _, kind := range []TransportKind{InMemory, TCP} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			faultFree := runChaosScenario(t, kind, FaultPlan{}, RetryPolicy{})
			for i, ok := range faultFree.outcomes {
				if !ok {
					t.Fatalf("fault-free audit %d reached no consensus — scenario is not a usable baseline", i)
				}
			}
			for name, plan := range chaosPlans() {
				chaos := runChaosScenario(t, kind, plan, chaosRetry())
				assertChaosEquivalent(t, name, faultFree, chaos)
			}
		})
	}
}

// TestChaosCountersAreDeterministic: the same plan and seed produce
// the same event counters run after run. The plan is zero-delay —
// injected delays trade determinism of *when* for determinism of
// *what*, and counter equality is a statement about the what.
func TestChaosCountersAreDeterministic(t *testing.T) {
	a, b := chaosCounterRun(t), chaosCounterRun(t)
	if a.dropped == 0 || a.retried == 0 {
		t.Fatalf("plan injected nothing: %+v", a)
	}
	if a != b {
		t.Fatalf("counters diverged across identical runs:\nrun 1: %+v\nrun 2: %+v", a, b)
	}
}

// chaosCounts are the fault counters of one chaos counter run.
type chaosCounts struct {
	dropped, retried, suspected, recovered int64
}

// chaosCounterRun submits three slots of one block per device on the
// in-memory fabric under a seeded 20 % drop plan and returns the event
// counters the run ends with.
func chaosCounterRun(t *testing.T) chaosCounts {
	t.Helper()
	var ec metrics.EventCounters
	rt, err := New(
		WithNodes(chaosNodes),
		WithSeed(7),
		WithGamma(1),
		WithDifficulty(2),
		WithRequestTimeout(250*time.Millisecond),
		WithFaults(FaultPlan{Seed: 105, DropRate: 0.2}),
		WithRetryPolicy(chaosRetry()),
		WithObserver(&ec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	for tag := byte(1); tag <= 3; tag++ {
		rt.AdvanceSlot()
		batch := make([]Submission, 0, chaosNodes)
		for _, id := range rt.Nodes() {
			batch = append(batch, Submission{Node: id, Data: []byte{tag, byte(id)}})
		}
		if _, err := rt.SubmitBatch(ctx, batch); err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
	}
	return chaosCounts{ec.MessagesDropped(), ec.RetriesAttempted(), ec.PeersSuspected(), ec.PeersRecovered()}
}
