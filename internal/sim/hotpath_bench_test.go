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
// per node) to every live neighbor's A_i cache. "batched" is the
// receiver-centric path phase 2 rides — grouped by receiver, one
// Engine.OnDigestBatch per receiver on the worker pool, zero
// allocations per flush — and "singleton" the per-edge OnDigest loop
// it replaced.
func BenchmarkAnnounceBatch(b *testing.B) {
	newSim := func(b *testing.B) (*Sim, []identity.NodeID, []digest.Digest) {
		b.Helper()
		cfg := topology.DefaultConfig(1)
		cfg.Nodes = 50
		s, err := New(Config{Topo: cfg, Seed: 1, Slots: 1, BodyBytes: 500_000})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(s.Close)
		froms := make([]identity.NodeID, len(s.ids))
		ds := make([]digest.Digest, len(s.ids))
		for i, id := range s.ids {
			froms[i] = id
			ds[i] = digest.Sum([]byte(fmt.Sprintf("slot digest %v", id)))
		}
		return s, froms, ds
	}
	b.Run("batched", func(b *testing.B) {
		s, froms, ds := newSim(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.deliverBatched(froms, ds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("singleton", func(b *testing.B) {
		s, froms, ds := newSim(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, id := range froms {
				if err := s.announce(id, ds[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkHotpathSimStep measures one full simulated run (generation,
// announcement, audits) under the serial scheduler and the parallel
// worker pool. Both produce byte-identical reports (see
// TestParallelSchedulerIsDeterministic); the difference is wall clock.
// The n=10k variant is the scale benchmark behind ROADMAP item 5: a
// 10k-node small-world network stepping three slots with audits live
// (VerifyLag below the horizon) on the chunked phases and one plain
// store per node, so ns/op tracks per-slot cost at scale.
func BenchmarkHotpathSimStep(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := New(Config{
					Topo:      topology.Config{Nodes: 16, Width: 320, Height: 320, Range: 100, Seed: 1},
					Seed:      1,
					Slots:     30,
					BodyBytes: 500_000,
					Gamma:     5,
					Workers:   workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				_, err = s.Run()
				s.Close()
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
				Graph:         g,
				Seed:          1,
				Slots:         3,
				BodyBytes:     100_000,
				Gamma:         8,
				VerifyLag:     1,
				PipelineDepth: 2,
				ChunkSize:     256,
				TrustCap:      1024,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := s.Run()
			s.Close()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Blocks != 30_000 {
				b.Fatalf("blocks = %d, want 30000", rep.Blocks)
			}
		}
	})
}

// BenchmarkHotpathPipeline measures the full slotted run (generation,
// announcement, audits) across pipeline depths and worker counts. All
// four variants produce byte-identical reports
// (TestPipelinedSchedulerIsDeterministic); depth 2 lets slot t's
// audits overlap slot t+1's generation on the audit stage, so on
// multi-core hardware the deeper pipeline trades idle barrier time
// for wall clock. On a single CPU the variants should match.
func BenchmarkHotpathPipeline(b *testing.B) {
	for _, tc := range []struct {
		name           string
		depth, workers int
	}{
		{"depth=1_workers=1", 1, 1},
		{"depth=2_workers=1", 2, 1},
		{"depth=1_workers=4", 1, 4},
		{"depth=2_workers=4", 2, 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := New(Config{
					Topo:          topology.Config{Nodes: 16, Width: 320, Height: 320, Range: 100, Seed: 1},
					Seed:          1,
					Slots:         30,
					BodyBytes:     500_000,
					Gamma:         5,
					Workers:       tc.workers,
					PipelineDepth: tc.depth,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
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
		Workers:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
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
