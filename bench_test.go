package twoldag

// Benchmark harness: one benchmark per figure of the paper's
// evaluation (the figure functions of package experiments), plus
// ablations and protocol micro-benchmarks. Benchmarks run a
// scaled-down (but shape-preserving) configuration so `go test
// -bench=.` completes in minutes; cmd/experiments regenerates the
// full-scale figures.
//
// Custom metrics reported:
//
//	MB/node       final average per-node storage (Fig. 7 y-axis)
//	Mb/node       final average per-node transmission (Fig. 8 y-axis)
//	slots         slots-to-consensus (Fig. 9 headline)
//	msgs/audit    PoP message cost per audit

import (
	"context"
	"fmt"
	"testing"

	"github.com/twoldag/twoldag/internal/analysis"
	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/baseline/iota"
	"github.com/twoldag/twoldag/internal/baseline/pbft"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/metrics"
	"github.com/twoldag/twoldag/internal/sim"
	"github.com/twoldag/twoldag/internal/topology"
)

// benchTopo is the shared scaled-down deployment.
func benchTopo(b *testing.B) topology.Config {
	b.Helper()
	return topology.Config{Nodes: 16, Width: 320, Height: 320, Range: 100, Seed: 1}
}

const benchSlots = 40

// BenchmarkFig7Storage regenerates Fig. 7(a)-(c): per-node storage of
// 2LDAG vs PBFT vs IOTA for each body size.
func BenchmarkFig7Storage(b *testing.B) {
	for _, bodyBytes := range []int{100_000, 500_000, 1_000_000} {
		b.Run(fmt.Sprintf("C=%.1fMB", float64(bodyBytes)/1e6), func(b *testing.B) {
			var last2ldag, lastPBFT, lastIOTA float64
			for i := 0; i < b.N; i++ {
				g, err := topology.Generate(benchTopo(b))
				if err != nil {
					b.Fatal(err)
				}
				pr, err := pbft.Run(pbft.Config{Nodes: 16, Slots: benchSlots, BodyBytes: bodyBytes})
				if err != nil {
					b.Fatal(err)
				}
				ir, err := iota.Run(iota.Config{Graph: g, Slots: benchSlots, BodyBytes: bodyBytes, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(sim.Config{
					Graph: g, Seed: 1, Slots: benchSlots, BodyBytes: bodyBytes,
					Gamma: 5, RetainVerifiedBlocks: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				r2, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				last2ldag = metrics.BitsToMB(r2.AvgStorageBits[benchSlots-1])
				lastPBFT = metrics.BitsToMB(pr.AvgStorageBits[benchSlots-1])
				lastIOTA = metrics.BitsToMB(ir.AvgStorageBits[benchSlots-1])
			}
			b.ReportMetric(last2ldag, "2LDAG-MB/node")
			b.ReportMetric(lastPBFT, "PBFT-MB/node")
			b.ReportMetric(lastIOTA, "IOTA-MB/node")
			if last2ldag > 0 {
				b.ReportMetric(lastPBFT/last2ldag, "PBFT/2LDAG-ratio")
			}
		})
	}
}

// BenchmarkFig7StorageCDF regenerates Fig. 7(d): the storage CDF across
// nodes at the final slot.
func BenchmarkFig7StorageCDF(b *testing.B) {
	var p50, p90 float64
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Config{
			Topo: benchTopo(b), Seed: 1, Slots: benchSlots, BodyBytes: 500_000,
			Gamma: 5, RetainVerifiedBlocks: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		samples := make([]float64, len(rep.NodeStorageBits))
		for j, bits := range rep.NodeStorageBits {
			samples[j] = metrics.BitsToMB(bits)
		}
		cdf, err := metrics.NewCDF(samples)
		if err != nil {
			b.Fatal(err)
		}
		p50, p90 = cdf.Quantile(0.5), cdf.Quantile(0.9)
	}
	b.ReportMetric(p50, "p50-MB")
	b.ReportMetric(p90, "p90-MB")
}

// BenchmarkFig8Comm regenerates Fig. 8(a)-(c): communication overhead
// split into DAG-construction and consensus traffic, at the paper's
// two tolerance settings.
func BenchmarkFig8Comm(b *testing.B) {
	for _, tc := range []struct {
		name  string
		gamma int
	}{{"gamma=33pct", 5}, {"gamma=49pct", 7}} {
		b.Run(tc.name, func(b *testing.B) {
			var total, constr, cons float64
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Topo: benchTopo(b), Seed: 1, Slots: benchSlots,
					BodyBytes: 500_000, Gamma: tc.gamma,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				total = metrics.BitsToMb(rep.AvgCommBits[benchSlots-1])
				constr = metrics.BitsToMb(rep.AvgConstructionBits[benchSlots-1])
				cons = metrics.BitsToMb(rep.AvgConsensusBits[benchSlots-1])
			}
			b.ReportMetric(total, "total-Mb/node")
			b.ReportMetric(constr, "construction-Mb/node")
			b.ReportMetric(cons, "consensus-Mb/node")
		})
	}
}

// BenchmarkFig8CommBaselines reports the PBFT and IOTA comparison lines
// of Fig. 8(a).
func BenchmarkFig8CommBaselines(b *testing.B) {
	var pbftMb, iotaMb float64
	for i := 0; i < b.N; i++ {
		g, err := topology.Generate(benchTopo(b))
		if err != nil {
			b.Fatal(err)
		}
		pr, err := pbft.Run(pbft.Config{Nodes: 16, Slots: benchSlots, BodyBytes: 500_000})
		if err != nil {
			b.Fatal(err)
		}
		ir, err := iota.Run(iota.Config{Graph: g, Slots: benchSlots, BodyBytes: 500_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		pbftMb = metrics.BitsToMb(pr.AvgCommBits[benchSlots-1])
		iotaMb = metrics.BitsToMb(ir.AvgCommBits[benchSlots-1])
	}
	b.ReportMetric(pbftMb, "PBFT-Mb/node")
	b.ReportMetric(iotaMb, "IOTA-Mb/node")
}

// BenchmarkFig9Consensus regenerates Fig. 9: slots until consensus for
// increasing γ with γ actually-malicious (silent) nodes.
func BenchmarkFig9Consensus(b *testing.B) {
	for _, tc := range []struct {
		name      string
		gamma     int
		malicious int
	}{
		{"gamma=3", 3, 3},
		{"gamma=5", 5, 5},
		{"gamma=7", 7, 7},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var slots float64
			for i := 0; i < b.N; i++ {
				rep, err := sim.RunProbe(sim.ProbeConfig{
					Base: sim.Config{
						Topo: benchTopo(b), Seed: int64(i), BodyBytes: 500_000,
						Gamma: tc.gamma, Malicious: tc.malicious,
						Behavior: attack.KindSilent, RandomPeriodMax: 2,
					},
					MaxSlots: 60, Trials: 2, Stride: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.SlotsToConsensus >= 0 {
					slots = float64(rep.SlotsToConsensus)
				} else {
					slots = 60
				}
			}
			b.ReportMetric(slots, "slots-to-consensus")
		})
	}
}

// BenchmarkAblationPathStrategy compares WPS against random and
// shortest-path-first selection (ABL-WPS).
func BenchmarkAblationPathStrategy(b *testing.B) {
	for _, tc := range []struct {
		name     string
		strategy core.SelectionStrategy
	}{
		{"WPS", core.WPS{}},
		{"random", core.RandomSelection{}},
		{"shortest-path-first", core.ShortestPathFirst{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var consMb, msgs float64
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Topo: benchTopo(b), Seed: 1, Slots: benchSlots,
					BodyBytes: 100_000, Gamma: 5, Strategy: tc.strategy,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				consMb = metrics.BitsToMb(rep.AvgConsensusBits[benchSlots-1])
				if rep.Audits > 0 {
					msgs = float64(rep.AvgConsensusBits[benchSlots-1]*16) / float64(rep.Audits)
				}
			}
			b.ReportMetric(consMb, "consensus-Mb/node")
			b.ReportMetric(msgs, "bits/audit")
		})
	}
}

// BenchmarkAblationTPS compares repeat-audit cost with and without the
// H_i trusted-header cache (ABL-TPS).
func BenchmarkAblationTPS(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"TPS-on", false}, {"TPS-off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var consMb float64
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Topo: benchTopo(b), Seed: 1, Slots: benchSlots,
					BodyBytes: 100_000, Gamma: 5, DisableTrust: tc.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				consMb = metrics.BitsToMb(rep.AvgConsensusBits[benchSlots-1])
			}
			b.ReportMetric(consMb, "consensus-Mb/node")
		})
	}
}

// BenchmarkPropositionBounds micro-benchmarks the Sec. V analytic
// formulas (they run inside every experiment loop).
func BenchmarkPropositionBounds(b *testing.B) {
	rates := make([]float64, 50)
	for i := range rates {
		rates[i] = float64(50 - i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.TotalBlocks(200, rates, 4e6); err != nil {
			b.Fatal(err)
		}
		if _, err := analysis.MessageUpperBound(rates, 24); err != nil {
			b.Fatal(err)
		}
		if _, err := analysis.MicroLoopBound(rates[:10], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoPAuditLive measures one live PoP audit on the public API.
func BenchmarkPoPAuditLive(b *testing.B) {
	cluster, err := New(WithNodes(12), WithGamma(3), WithSeed(5), WithDifficulty(2))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	var refs []Ref
	for s := 0; s < 4; s++ {
		cluster.AdvanceSlot()
		for _, id := range cluster.Nodes() {
			ref, err := cluster.Submit(ctx, id, []byte{byte(s)})
			if err != nil {
				b.Fatal(err)
			}
			refs = append(refs, ref)
		}
	}
	validator := cluster.Nodes()[11]
	target := refs[0]
	var msgs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Audit(ctx, validator, target)
		if err != nil {
			b.Fatal(err)
		}
		msgs = float64(res.MessagesSent + res.MessagesReceived)
	}
	b.ReportMetric(msgs, "msgs/audit")
}

// BenchmarkBlockGeneration measures end-to-end block production
// (Merkle root + PoW + signature) at the default difficulty.
func BenchmarkBlockGeneration(b *testing.B) {
	cluster, err := New(WithNodes(6), WithGamma(1), WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	id := cluster.Nodes()[0]
	body := make([]byte, 4096)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.AdvanceSlot()
		if _, err := cluster.Submit(ctx, id, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathSubmitBatchDurable prices one durable slot on the
// live driver: 32 devices each seal one 256-byte block (difficulty 2,
// so the WAL and not the grind is what is timed), the round's records
// are staged on the GOMAXPROCS-wide seal pool and its one commit window closes
// with one write and one fsync, and the announcements flush and are
// acknowledged.
func BenchmarkHotpathSubmitBatchDurable(b *testing.B) {
	rt, err := New(WithNodes(32), WithGamma(3), WithSeed(5), WithDifficulty(2),
		WithDataDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	body := make([]byte, 256)
	batch := make([]Submission, 0, 32)
	for _, id := range rt.Nodes() {
		batch = append(batch, Submission{Node: id, Data: body})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.AdvanceSlot()
		if _, err := rt.SubmitBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}
