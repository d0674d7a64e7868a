package experiments

import (
	"testing"

	"github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/metrics"
	"github.com/twoldag/twoldag/internal/sim"
	"github.com/twoldag/twoldag/internal/topology"
)

// quickCommCostCeiling is the most REQ_CHILD hops the 2LDAG runs of
// quick Fig. 7 and Fig. 8 may send, summed over seeds 1-10
// (quickCommCost). A change that lowers the sum lowers the ceiling with
// it; raising it is a gate change and needs its cause recorded.
const quickCommCostCeiling = 82_585

// quickCommCost runs the 2LDAG halves of quick Fig. 7 and Fig. 8 at
// seed, as the figures build them, and returns each figure's audits and
// REQ_CHILD hops. Fig. 7's three body sizes audit alike, so one of its
// runs stands for the three; Fig. 8 contributes its γ = 33 % and 49 %
// runs.
func quickCommCost(t *testing.T, seed int64) (fig7, fig8 *metrics.EventCounters) {
	t.Helper()
	scale := QuickScale()
	scale.Seed = seed
	graph, err := topology.Generate(scale.topoConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig7 = &metrics.EventCounters{}
	s, err := sim.New(sim.Config{
		Graph: graph, Seed: seed, Slots: scale.Slots, BodyBytes: 100_000,
		Gamma: scale.gammaFor(0.33), RetainVerifiedBlocks: true, Observer: fig7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	fig8 = &metrics.EventCounters{}
	for _, fraction := range []float64{0.33, 0.49} {
		if _, err := runPublic(graph, seed, scale.Slots, 500_000,
			twoldag.WithGamma(scale.gammaFor(fraction)), twoldag.WithObserver(fig8)); err != nil {
			t.Fatal(err)
		}
	}
	return fig7, fig8
}

// TestQuickCommCostCeiling is the ratchet on the paper's communication
// cost: the REQ_CHILD hops of quick Fig. 7 and Fig. 8 over seeds 1-10
// may not rise above quickCommCostCeiling. One seed's hops/audit ranges
// several-fold across seeds, so a figure hash alone cannot say which
// way a search change moved them. The count is deterministic, so the
// -short and race lanes skip it; CI's plain "Test" step runs it.
func TestQuickCommCostCeiling(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs quick Fig. 7 and Fig. 8 at ten seeds")
	}
	var hops, audits [2]int64
	for seed := int64(1); seed <= 10; seed++ {
		fig7, fig8 := quickCommCost(t, seed)
		for i, c := range []*metrics.EventCounters{fig7, fig8} {
			if c.ConsensusReached() != c.Audits() {
				t.Errorf("seed %d: Fig. %d: %d of %d audits reached consensus", seed, 7+i, c.ConsensusReached(), c.Audits())
			}
			hops[i] += c.AuditHops()
			audits[i] += c.Audits()
		}
	}
	for i := range hops {
		t.Logf("Fig. %d: %d audits, %d REQ_CHILD hops (%.1f per audit)", 7+i, audits[i], hops[i], float64(hops[i])/float64(audits[i]))
	}
	if sum := hops[0] + hops[1]; sum > quickCommCostCeiling {
		t.Fatalf("quick Fig. 7 + Fig. 8 over seeds 1-10 sent %d REQ_CHILD hops, above the ceiling %d", sum, quickCommCostCeiling)
	}
}
