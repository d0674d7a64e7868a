package sim

import (
	"fmt"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// BenchmarkAnnounceBatch isolates the announcement phase at the
// paper's 50-node scale: one op delivers a full slot's digests (one
// per node) to every live neighbor's A_i cache through the
// receiver-centric path phase 2 rides — grouped by receiver, one
// Engine.OnDigestBatch per receiver in parallel, zero
// allocations per flush. It is the simulator's only announcement
// path; the sub-benchmark name keeps the guarded baseline row.
func BenchmarkAnnounceBatch(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		cfg := topology.DefaultConfig(1)
		cfg.Nodes = 50
		s, err := New(Config{Topo: cfg, Seed: 1, Slots: 1, BodyBytes: 500_000})
		if err != nil {
			b.Fatal(err)
		}
		froms := make([]identity.NodeID, len(s.ids))
		ds := make([]digest.Digest, len(s.ids))
		for i, id := range s.ids {
			froms[i] = id
			ds[i] = digest.Sum([]byte(fmt.Sprintf("slot digest %v", id)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.deliverBatched(froms, ds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHotpathSimStep measures one full simulated run (generation,
// announcement, audits) under the serial scheduler (GOMAXPROCS 1) and
// the parallel one (the process's GOMAXPROCS). Both produce
// byte-identical reports (see TestParallelSchedulerIsDeterministic);
// the difference is wall clock. The n=10k variant is the short form
// of TestScaleRun10k's scale validation: a 10k-node small-world network
// stepping three slots with audits live (VerifyLag below the horizon)
// on the per-node par.ForEach phases and one plain store per node, so
// ns/op tracks per-slot cost at scale.
func BenchmarkHotpathSimStep(b *testing.B) {
	for _, serial := range []bool{true, false} {
		name := "serial"
		if !serial {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			if serial {
				setGOMAXPROCS(b, 1)
			}
			for i := 0; i < b.N; i++ {
				s, err := New(Config{
					Topo:      topology.Config{Nodes: 16, Width: 320, Height: 320, Range: 100, Seed: 1},
					Seed:      1,
					Slots:     30,
					BodyBytes: 500_000,
					Gamma:     5,
				})
				if err != nil {
					b.Fatal(err)
				}
				_, err = s.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("n=10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := topology.SmallWorld(topology.SmallWorldConfig{
				Nodes: 10_000, K: 3, Beta: 0.2, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{
				Graph:     g,
				Seed:      1,
				Slots:     3,
				BodyBytes: 100_000,
				Gamma:     8,
				VerifyLag: 1,
				TrustCap:  1024,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Blocks != 30_000 {
				b.Fatalf("blocks = %d, want 30000", rep.Blocks)
			}
		}
	})
}

// BenchmarkHotpathAuditRepeat isolates the repeat-audit path: one
// validator re-auditing the same aged block, so trust hits, memoized
// hashes and the validation cache all engage.
func BenchmarkHotpathAuditRepeat(b *testing.B) {
	s, err := New(Config{
		Topo:      topology.Config{Nodes: 16, Width: 320, Height: 320, Range: 100, Seed: 1},
		Seed:      1,
		Slots:     20,
		BodyBytes: 500_000,
		Gamma:     5,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	target, _, err := s.BlockAt(0)
	if err != nil {
		b.Fatal(err)
	}
	validator := s.ids[len(s.ids)-1]
	if validator == target.Node {
		validator = s.ids[len(s.ids)-2]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Verify(validator, target)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consensus {
			b.Fatal(fmt.Errorf("no consensus auditing %v", target))
		}
	}
}
