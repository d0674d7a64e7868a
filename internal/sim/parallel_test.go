package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/par"
	"github.com/twoldag/twoldag/internal/topology"
)

// setGOMAXPROCS sets the width of every par.ForEach — the slot
// phases' — for the rest of the test and restores the old one
// afterwards. Tests that use it must not run in parallel: GOMAXPROCS
// is process-wide.
func setGOMAXPROCS(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// churnRun drives the slotted scheduler at GOMAXPROCS procs through a
// run with mid-run membership churn: a stretch of slots, then a
// Silence and a JoinNode, then more slots. Two nodes are
// silent-malicious and retention is accounted.
func churnRun(t *testing.T, procs int) *Report {
	t.Helper()
	setGOMAXPROCS(t, procs)
	cfg := smallConfig(42)
	cfg.Malicious = 2
	cfg.Behavior = attack.KindSilent
	cfg.RetainVerifiedBlocks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunSlots(14); err != nil {
		t.Fatal(err)
	}
	// Silence the first honest node (deterministic across runs: ids are
	// in construction order and the behavior assignment is seeded).
	var victim identity.NodeID
	found := false
	for _, id := range s.ids {
		if !s.IsMalicious(id) {
			victim, found = id, true
			break
		}
	}
	if !found {
		t.Fatal("no honest node to silence")
	}
	if err := s.Silence(victim); err != nil {
		t.Fatal(err)
	}
	// Join a fresh node next to the newest device, mirroring the public
	// facade's joiner placement.
	g := s.Graph()
	joiner := s.ids[len(s.ids)-1] + 1
	for g.Has(joiner) {
		joiner++
	}
	anchor := s.ids[len(s.ids)-1]
	ap, _ := g.Position(anchor)
	if err := g.AddNode(joiner, topology.Point{X: ap.X + g.CommRange()/2, Y: ap.Y}); err != nil {
		t.Fatal(err)
	}
	if g.Degree(joiner) == 0 {
		if err := g.Link(anchor, joiner); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.JoinNode(joiner); err != nil {
		t.Fatal(err)
	}
	if err := s.RunSlots(16); err != nil {
		t.Fatal(err)
	}
	return s.Finalize()
}

// TestParallelSchedulerIsDeterministic asserts the acceptance criterion
// of the parallel slot scheduler: the same Seed must produce an
// identical Report — every storage/comm/consensus series and per-node
// sample — at any GOMAXPROCS, including the serial fallback, on
// sparse generated topologies as well as the default random-geometric
// one, and across mid-run Silence/JoinNode churn. All three slot
// phases are par.ForEach fan-outs, so this covers the receiver-batched
// announcement phase too: per-receiver batches keep
// (sender, slot-order) ordering, making cache contents — and hence the
// Report — independent of delivery scheduling.
func TestParallelSchedulerIsDeterministic(t *testing.T) {
	topos := []struct {
		name  string
		graph func(t *testing.T) *topology.Graph
	}{
		{"geometric", func(t *testing.T) *topology.Graph { return nil }}, // smallConfig's Topo
		{"smallworld", func(t *testing.T) *topology.Graph {
			g, err := topology.SmallWorld(topology.SmallWorldConfig{Nodes: 12, K: 2, Beta: 0.3, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"geoclustered", func(t *testing.T) *topology.Graph {
			g, err := topology.GeoClustered(topology.GeoClusteredConfig{Nodes: 12, ClusterSize: 4, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, tc := range topos {
		t.Run(tc.name, func(t *testing.T) {
			run := func(procs int) *Report {
				t.Helper()
				setGOMAXPROCS(t, procs)
				cfg := smallConfig(42)
				cfg.Graph = tc.graph(t)
				cfg.Malicious = 2
				cfg.Behavior = attack.KindSilent
				cfg.RetainVerifiedBlocks = true
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			checkWorkers(t, run)
		})
	}
	t.Run("churn", func(t *testing.T) {
		checkWorkers(t, func(procs int) *Report { return churnRun(t, procs) })
	})
}

// checkWorkers requires run to report identically at GOMAXPROCS 2 and
// 8 as it does serially, at GOMAXPROCS 1.
func checkWorkers(t *testing.T, run func(procs int) *Report) {
	t.Helper()
	serial := run(1)
	for _, procs := range []int{2, 8} {
		if got := run(procs); !reflect.DeepEqual(serial, got) {
			t.Fatalf("GOMAXPROCS=%d diverged from serial run:\nserial:   %+v\nparallel: %+v", procs, serial, got)
		}
	}
}

// TestParallelSchedulerRepeatable runs the default (GOMAXPROCS-wide)
// schedule twice: scheduling jitter must never leak into the report.
func TestParallelSchedulerRepeatable(t *testing.T) {
	run := func() *Report {
		t.Helper()
		cfg := smallConfig(7)
		cfg.RandomPeriodMax = 2
		// Capped H_i: eviction order must be as repeatable as insertion.
		cfg.TrustCap = 8
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}

// TestParallelAuditsOnHealthyNetwork runs a long schedule at
// GOMAXPROCS 4 with a short verification lag, so every slot's audit
// phase has four goroutines walking paths through the same responders'
// stores. Under
// -race this pins the shared read path of the audit phase; on a
// network with no malicious node every audit must reach consensus.
func TestParallelAuditsOnHealthyNetwork(t *testing.T) {
	cfg := smallConfig(99)
	cfg.Slots = 40
	cfg.VerifyLag = 6
	setGOMAXPROCS(t, 4)
	cfg.RetainVerifiedBlocks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audits == 0 {
		t.Fatal("no audits ran")
	}
	if rep.Failures != 0 {
		t.Fatalf("%d/%d honest audits failed on a healthy network", rep.Failures, rep.Audits)
	}
}

// TestSimHoldsNoGoroutines: a Sim keeps no goroutine between calls,
// so one that is built, run and dropped without any teardown leaves
// the process's goroutine count where it found it.
func TestSimHoldsNoGoroutines(t *testing.T) {
	setGOMAXPROCS(t, 4)
	before := runtime.NumGoroutine()
	s, err := New(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Goroutines that returned may take a moment to leave the count.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before building the Sim, %d after its run", before, after)
	}
}

// TestConcurrentAuditsFromOneValidator: the validator's tie rule holds
// no state, so AuditFrom takes no per-validator lock, and audits from
// one validator may run at once. Run under -race, many concurrent
// audits from one node must race on nothing and reach the verdicts a
// serial run of the same audits on an identical Sim reaches. Slot duty
// is off, so H_i starts empty and the audits walk the network, breaking
// ties, instead of reading H_i; with the earlier per-node RNG in place
// of the tie rule and no lock, -race reports the shared stream here.
func TestConcurrentAuditsFromOneValidator(t *testing.T) {
	setGOMAXPROCS(t, 4)
	build := func() *Sim {
		cfg := smallConfig(5)
		cfg.Malicious = 3
		cfg.Behavior = attack.KindSilent
		cfg.disableAudits = true
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunSlots(20); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, concurrent := build(), build()
	var validator identity.NodeID
	for _, id := range serial.ids {
		if !serial.IsMalicious(id) {
			validator = id
			break
		}
	}
	var targets []block.Ref
	for i := 0; i < serial.BlockCount() && len(targets) < 48; i++ {
		if ref, _, _ := serial.BlockAt(i); ref.Node != validator {
			targets = append(targets, ref)
		}
	}
	type verdict struct{ consensus, noConsensus bool }
	of := func(res *core.Result, err error) verdict {
		return verdict{res != nil && res.Consensus, errors.Is(err, core.ErrNoConsensus)}
	}
	want := make([]verdict, len(targets))
	for k, ref := range targets {
		want[k] = of(serial.AuditFrom(context.Background(), validator, ref))
	}
	got := make([]verdict, len(targets))
	par.ForEach(len(targets), func(k int) {
		got[k] = of(concurrent.AuditFrom(context.Background(), validator, targets[k]))
	})
	reached := 0
	for k := range targets {
		if got[k] != want[k] {
			t.Errorf("audit %v by %v: concurrent %+v, serial %+v", targets[k], validator, got[k], want[k])
		}
		if want[k].consensus {
			reached++
		}
	}
	if reached == 0 {
		t.Fatal("no audit reached consensus: the test has no power")
	}
	t.Logf("%d audits from %v, %d reached consensus", len(targets), validator, reached)
}
