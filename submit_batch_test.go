package twoldag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
)

// setGOMAXPROCS sets the width of every batch fan-out (par.ForEach:
// the seal stage, AuditMany, compaction, the simulator's slot phases)
// for the rest of the test and restores the old one afterwards, so
// tests can compare the plain loop with a parallel schedule. Tests
// that use it must not run in parallel: GOMAXPROCS is process-wide.
func setGOMAXPROCS(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSubmitBatchFailureSemantics pins, clause by clause, the contract
// documented on Runtime.SubmitBatch for the live driver's parallel seal
// stage.
func TestSubmitBatchFailureSemantics(t *testing.T) {
	ctx := context.Background()
	// big and bigger provoke the one seal error a test can cause on
	// demand: a body past the decoder limit.
	small, big, bigger := make([]byte, 8), make([]byte, block.MaxBodyLen+1), make([]byte, block.MaxBodyLen+2)

	// nextSeq reports the sequence number id's next block will get.
	nextSeq := func(t *testing.T, rt Runtime, id NodeID) uint32 {
		t.Helper()
		ref, err := rt.Submit(ctx, id, small)
		if err != nil {
			t.Fatalf("Submit(%v): %v", id, err)
		}
		return ref.Seq + 1
	}

	t.Run("unknown node fails before anything is sealed", func(t *testing.T) {
		obs := &countingObserver{}
		rt := newRuntime(t, append(baseOptions(6, 1), WithObserver(obs))...)
		rt.AdvanceSlot()
		ids := rt.Nodes()
		refs, err := rt.SubmitBatch(ctx, []Submission{
			{Node: ids[0], Data: small},
			{Node: ids[1], Data: small},
			{Node: 999, Data: small},
			{Node: ids[2], Data: small},
		})
		if err == nil || !strings.Contains(err.Error(), "unknown node") {
			t.Fatalf("want an unknown-node error, got %v", err)
		}
		if len(refs) != 0 {
			t.Fatalf("want no refs, got %v", refs)
		}
		if got := obs.sealed.Load(); got != 0 {
			t.Fatalf("%d blocks were sealed ahead of the unknown node", got)
		}
	})

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("lowest-index failure and the refs before it/workers=%d", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			rt := newRuntime(t, baseOptions(6, 1)...)
			rt.AdvanceSlot()
			ids := rt.Nodes()
			a, b, c := ids[0], ids[1], ids[2]
			seqA, seqB, seqC := nextSeq(t, rt, a), nextSeq(t, rt, b), nextSeq(t, rt, c)
			// Two seals fail, on different owners: index 3's error must win
			// over index 5's whichever worker fails first, and c's block at
			// index 2 — before the failure, on an owner that may start late
			// — must still be sealed.
			refs, err := rt.SubmitBatch(ctx, []Submission{
				{Node: a, Data: small},
				{Node: b, Data: small},
				{Node: c, Data: small},
				{Node: a, Data: big}, // fails
				{Node: c, Data: small},
				{Node: b, Data: bigger}, // fails too
				{Node: a, Data: small},
			})
			if want := fmt.Sprintf("%d > %d", len(big), block.MaxBodyLen); !errors.Is(err, block.ErrBodyTooLarge) || !strings.Contains(err.Error(), want) {
				t.Fatalf("want index 3's error (%s), got %v", want, err)
			}
			want := []Ref{{Node: a, Seq: seqA}, {Node: b, Seq: seqB}, {Node: c, Seq: seqC}}
			if !reflect.DeepEqual(refs, want) {
				t.Fatalf("refs = %v, want exactly the submissions before the failure %v", refs, want)
			}
			// The failing owner stopped at its failure: its submission at
			// index 6 was never sealed.
			if got := nextSeq(t, rt, a); got != seqA+2 {
				t.Fatalf("owner %v sealed past its failure: next seq %d, want %d", a, got-1, seqA+1)
			}
		})
	}

	t.Run("no block is started after a recorded failure", func(t *testing.T) {
		// At GOMAXPROCS 1 the seal stage runs the owners in
		// first-appearance order on the caller, so the failure at index 0
		// is on record before any other owner starts.
		obs := &countingObserver{}
		setGOMAXPROCS(t, 1)
		rt := newRuntime(t, append(baseOptions(6, 1), WithObserver(obs))...)
		rt.AdvanceSlot()
		ids := rt.Nodes()
		refs, err := rt.SubmitBatch(ctx, []Submission{
			{Node: ids[0], Data: big},
			{Node: ids[1], Data: small},
			{Node: ids[2], Data: small},
			{Node: ids[0], Data: small},
		})
		if !errors.Is(err, block.ErrBodyTooLarge) {
			t.Fatalf("want ErrBodyTooLarge, got %v", err)
		}
		if len(refs) != 0 || obs.sealed.Load() != 0 {
			t.Fatalf("got refs %v and %d sealed blocks after a failure at index 0", refs, obs.sealed.Load())
		}
	})

	t.Run("every registered expectation is cancelled", func(t *testing.T) {
		// Every announcement frame is dropped and nothing retries, so
		// each wait times out with all of its neighbours pending.
		setGOMAXPROCS(t, 4)
		rt := newRuntime(t, append(baseOptions(6, 1),
			WithRequestTimeout(50*time.Millisecond), WithFaults(FaultPlan{Seed: 1, DropRate: 1}))...)
		rt.AdvanceSlot()
		ids := rt.Nodes()
		batch := make([]Submission, len(ids))
		for i, id := range ids {
			batch[i] = Submission{Node: id, Data: small}
		}
		refs, err := rt.SubmitBatch(ctx, batch)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want an acknowledgement timeout, got %v", err)
		}
		if want := fmt.Sprintf("from %v ", ids[0]); !strings.Contains(err.Error(), want) {
			t.Fatalf("want the lowest-index wait's error (%q), got %v", want, err)
		}
		// Past the seal stage every block is sealed: all refs come back.
		if len(refs) != len(batch) {
			t.Fatalf("got %d refs, want all %d", len(refs), len(batch))
		}
		c := rt.(*Cluster)
		for _, ref := range refs {
			b, err := rt.Block(ref)
			if err != nil {
				t.Fatal(err)
			}
			if left := c.tracker.Pending(b.Header.Hash()); left != nil {
				t.Fatalf("expectation for %v still registered, pending %v", ref, left)
			}
		}
	})
}

// workersRun is what TestSubmitBatchWorkersEquivalence compares.
type workersRun struct {
	refs     []Ref
	hashes   []Digest
	states   []Digest
	verdicts []string
}

// runInterleaved drives a fixed seeded workload — four slots, each one
// batch holding three blocks per owner in a shuffled interleaving —
// then audits a spread of the older blocks, compacting at every block
// records of one device when every is positive (compactEvery).
func runInterleaved(t *testing.T, every int, opts ...Option) workersRun {
	t.Helper()
	rt := compactEvery(newRuntime(t, append(baseOptions(8, 2), opts...)...), every)
	ctx := context.Background()
	ids := rt.Nodes()
	rng := rand.New(rand.NewSource(11))
	next := map[NodeID]uint32{}
	var run workersRun
	for slot := 0; slot < 4; slot++ {
		rt.AdvanceSlot()
		var batch []Submission
		for round := 0; round < 3; round++ {
			for _, id := range ids {
				batch = append(batch, Submission{Node: id, Data: []byte(fmt.Sprintf("reading %v@%d.%d", id, slot, round))})
			}
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		refs, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			t.Fatalf("SubmitBatch slot %d: %v", slot, err)
		}
		if len(refs) != len(batch) {
			t.Fatalf("slot %d: %d refs for %d submissions", slot, len(refs), len(batch))
		}
		for i, ref := range refs {
			// Batch order is sequence order within an owner.
			if ref.Node != batch[i].Node || ref.Seq != next[ref.Node] {
				t.Fatalf("slot %d ref %d = %v, want %v#%d", slot, i, ref, batch[i].Node, next[ref.Node])
			}
			next[ref.Node]++
			b, err := rt.Block(ref)
			if err != nil {
				t.Fatalf("Block(%v): %v", ref, err)
			}
			if string(b.Body) != string(batch[i].Data) {
				t.Fatalf("slot %d ref %d carries another submission's body", slot, i)
			}
			run.hashes = append(run.hashes, b.Header.Hash())
		}
		run.refs = append(run.refs, refs...)
	}
	for _, id := range ids {
		d, err := rt.(*Cluster).StateDigest(id)
		if err != nil {
			t.Fatalf("StateDigest(%v): %v", id, err)
		}
		run.states = append(run.states, d)
	}
	for k := 0; k < 8; k++ {
		target := run.refs[(k*7)%(len(run.refs)/2)]
		validator := ids[(k*5)%len(ids)]
		if validator == target.Node {
			validator = ids[(k*5+1)%len(ids)]
		}
		res, err := rt.Audit(ctx, validator, target)
		verdict := fmt.Sprintf("%v by %v: no-consensus=%v", target, validator, errors.Is(err, ErrNoConsensus))
		if err == nil {
			verdict = fmt.Sprintf("%v by %v: consensus=%v vouchers=%d", target, validator, res.Consensus, len(res.Vouchers))
		}
		run.verdicts = append(run.verdicts, verdict)
	}
	return run
}

// TestSubmitBatchWorkersEquivalence: the seal stage's width is a
// matter of scheduling only. The same seeded run of interleaved
// multi-block-per-owner batches seals byte-identical blocks, leaves
// byte-identical node state and reaches the same audit verdicts at
// GOMAXPROCS 1 (the plain loop) and 4 — in memory and on durable
// nodes, with compactions firing inside the seal stage.
func TestSubmitBatchWorkersEquivalence(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "mem", true: "durable"}[durable], func(t *testing.T) {
			run := func(procs int) workersRun {
				setGOMAXPROCS(t, procs)
				var opts []Option
				every := 0
				if durable {
					opts, every = append(opts, WithDataDir(t.TempDir())), 4
				}
				return runInterleaved(t, every, opts...)
			}
			serial, wide := run(1), run(4)
			if !reflect.DeepEqual(serial.refs, wide.refs) {
				t.Fatalf("refs diverge:\n 1: %v\n 4: %v", serial.refs, wide.refs)
			}
			if !reflect.DeepEqual(serial.hashes, wide.hashes) {
				t.Fatal("sealed header hashes diverge between GOMAXPROCS 1 and 4")
			}
			if !reflect.DeepEqual(serial.states, wide.states) {
				t.Fatal("state digests diverge between GOMAXPROCS 1 and 4")
			}
			if !reflect.DeepEqual(serial.verdicts, wide.verdicts) {
				t.Fatalf("audit verdicts diverge:\n 1: %v\n 4: %v", serial.verdicts, wide.verdicts)
			}
			consensus := 0
			for _, v := range serial.verdicts {
				if strings.Contains(v, "consensus=true") {
					consensus++
				}
			}
			if consensus == 0 {
				t.Fatalf("no audit reached consensus; test has no power: %v", serial.verdicts)
			}
		})
	}
}
