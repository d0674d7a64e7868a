package sim

import (
	"reflect"
	"testing"

	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// churnRun drives the slotted scheduler through a run with mid-run
// membership churn: a stretch of slots, then a Silence and a JoinNode,
// then more slots. Two nodes are silent-malicious and retention is
// accounted.
func churnRun(t *testing.T, workers int) *Report {
	t.Helper()
	cfg := smallConfig(42)
	cfg.Malicious = 2
	cfg.Behavior = attack.KindSilent
	cfg.RetainVerifiedBlocks = true
	cfg.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
// sample — for any worker count, including the serial fallback, on
// sparse generated topologies as well as the default random-geometric
// one, and across mid-run Silence/JoinNode churn. All three slot
// phases run range-chunked on the worker pool, so this covers the
// receiver-batched announcement phase too: per-receiver batches keep
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
			run := func(workers int) *Report {
				t.Helper()
				cfg := smallConfig(42)
				cfg.Graph = tc.graph(t)
				cfg.Malicious = 2
				cfg.Behavior = attack.KindSilent
				cfg.RetainVerifiedBlocks = true
				cfg.Workers = workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
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
		checkWorkers(t, func(workers int) *Report { return churnRun(t, workers) })
	})
}

// checkWorkers requires run to report identically at 2 and 8 workers
// as it does serially.
func checkWorkers(t *testing.T, run func(workers int) *Report) {
	t.Helper()
	serial := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("Workers=%d diverged from serial run:\nserial:   %+v\nparallel: %+v", workers, serial, got)
		}
	}
}

// TestParallelSchedulerRepeatable runs the default (GOMAXPROCS) worker
// pool twice: scheduling jitter must never leak into the report.
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

// TestParallelAuditsOnHealthyNetwork runs a long multi-worker schedule
// with a short verification lag, so every slot's audit phase has four
// workers walking paths through the same responders' stores. Under
// -race this pins the shared read path of the audit phase; on a
// network with no malicious node every audit must reach consensus.
func TestParallelAuditsOnHealthyNetwork(t *testing.T) {
	cfg := smallConfig(99)
	cfg.Slots = 40
	cfg.VerifyLag = 6
	cfg.Workers = 4
	cfg.RetainVerifiedBlocks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
