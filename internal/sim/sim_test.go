package sim

import (
	"reflect"
	"testing"

	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/dag"
	"github.com/twoldag/twoldag/internal/topology"
)

// smallConfig is a fast 12-node network for unit tests.
func smallConfig(seed int64) Config {
	return Config{
		Topo:      topology.Config{Nodes: 12, Width: 300, Height: 300, Range: 90, Seed: seed},
		Seed:      seed,
		Slots:     30,
		BodyBytes: 1000,
		Gamma:     3,
		VerifyLag: 12,
	}
}

func TestRunBasics(t *testing.T) {
	s, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Prop. 1 with unit rates: |B| = nodes × slots.
	if rep.Blocks != 12*30 {
		t.Fatalf("blocks = %d, want %d", rep.Blocks, 12*30)
	}
	if rep.Audits == 0 {
		t.Fatal("no audits ran")
	}
	if rep.Failures != 0 {
		t.Fatalf("%d/%d honest audits failed", rep.Failures, rep.Audits)
	}
	if len(rep.AvgStorageBits) != 30 || len(rep.AvgCommBits) != 30 {
		t.Fatal("series lengths wrong")
	}
	if len(rep.NodeStorageBits) != 12 || len(rep.NodeCommBits) != 12 {
		t.Fatal("per-node sample counts wrong")
	}
}

// TestRunSlotsMatchesRun drives the schedule in uneven RunSlots pieces
// and finalizes twice: every slot is sampled once, at its own Step,
// whichever way the slots are driven, so the report equals Run's.
func TestRunSlotsMatchesRun(t *testing.T) {
	cfg := smallConfig(5)
	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	pieces, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 13, 10} {
		if err := pieces.RunSlots(n); err != nil {
			t.Fatal(err)
		}
	}
	pieces.Finalize()
	if got := pieces.Finalize(); !reflect.DeepEqual(want, got) {
		t.Fatalf("RunSlots report diverged from Run:\nRun:      %+v\nRunSlots: %+v", want, got)
	}
}

func TestStorageGrowsLinearly(t *testing.T) {
	s, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Storage is cumulative and roughly linear: the last point must be
	// close to slots × per-slot block cost.
	first := rep.AvgStorageBits[0]
	last := rep.AvgStorageBits[len(rep.AvgStorageBits)-1]
	if last <= first {
		t.Fatal("storage did not grow")
	}
	ratio := float64(last) / float64(first)
	if ratio < 25 || ratio > 60 { // 30 slots of S_i, plus H_i audit-cache growth
		t.Fatalf("growth ratio %.1f implausible for 30 slots", ratio)
	}
}

func TestCommSplitConstructionVsConsensus(t *testing.T) {
	s, err := New(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	lastConstr := rep.AvgConstructionBits[len(rep.AvgConstructionBits)-1]
	lastCons := rep.AvgConsensusBits[len(rep.AvgConsensusBits)-1]
	if lastConstr == 0 {
		t.Fatal("no construction traffic recorded")
	}
	if lastCons == 0 {
		t.Fatal("no consensus traffic recorded")
	}
	// Fig. 8(b) vs 8(c): consensus traffic (headers) dominates
	// construction traffic (digests).
	if lastCons <= lastConstr {
		t.Fatalf("consensus %d ≤ construction %d bits", lastCons, lastConstr)
	}
	// Before the verify lag elapses, consensus traffic must be zero
	// (Fig. 8(a)'s flat prefix).
	if rep.AvgConsensusBits[5] != 0 {
		t.Fatalf("consensus traffic before lag: %d", rep.AvgConsensusBits[5])
	}
	total := rep.AvgCommBits[len(rep.AvgCommBits)-1]
	if total != lastConstr+lastCons {
		t.Fatal("total comm must equal construction + consensus")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Audits != rb.Audits || ra.Failures != rb.Failures {
		t.Fatal("same seed, different audit outcomes")
	}
	for i := range ra.NodeCommBits {
		if ra.NodeCommBits[i] != rb.NodeCommBits[i] {
			t.Fatal("same seed, different comm")
		}
	}
}

func TestLogicalLayerIsAcyclicDAG(t *testing.T) {
	s, err := New(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	g, err := dag.FromStores(s.Stores())
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != s.BlockCount() {
		t.Fatalf("DAG has %d blocks, log has %d", g.Len(), s.BlockCount())
	}
	if !g.IsAcyclic() {
		t.Fatal("logical layer has a cycle")
	}
}

func TestMaliciousAssignment(t *testing.T) {
	cfg := smallConfig(6)
	cfg.Malicious = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.MaliciousNodes()); got != 4 {
		t.Fatalf("malicious count = %d, want 4", got)
	}
	for _, id := range s.MaliciousNodes() {
		if !s.IsMalicious(id) {
			t.Fatal("IsMalicious inconsistent")
		}
	}
}

func TestAuditsFailUnderHeavyAttack(t *testing.T) {
	// With γ close to n and many silent nodes, audits must start
	// failing — the consensus stress regime of Fig. 9(d).
	cfg := smallConfig(7)
	cfg.Gamma = 8
	cfg.Malicious = 6
	cfg.Behavior = attack.KindSilent
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audits == 0 {
		t.Fatal("no audits")
	}
	if rep.Failures == 0 {
		t.Fatal("expected failures with 6/12 silent nodes and γ=8")
	}
}

func TestCorruptAttackersAreDetected(t *testing.T) {
	// Corrupt responders are detected and routed around: audits of
	// honest-origin blocks still succeed, while audits that target a
	// corrupt node's own (tampered) block correctly fail the Merkle
	// check — those "failures" are the tamper detections the protocol
	// exists for. With 3/12 corrupt nodes, the failure share must sit
	// near the corrupt-target share, far below a consensus collapse.
	cfg := smallConfig(8)
	cfg.Gamma = 2
	cfg.Malicious = 3
	cfg.Behavior = attack.KindCorrupt
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audits == 0 {
		t.Fatal("no audits")
	}
	share := float64(rep.Failures) / float64(rep.Audits)
	if share == 0 {
		t.Fatal("corrupt-origin targets must be detected as failures")
	}
	if share > 0.45 {
		t.Fatalf("failure share %.2f exceeds plausible corrupt-target share", share)
	}
}

func TestRetainVerifiedBlocksIncreasesStorage(t *testing.T) {
	base := smallConfig(9)
	s1, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	retained := base
	retained.RetainVerifiedBlocks = true
	s2, err := New(retained)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	l1 := r1.AvgStorageBits[len(r1.AvgStorageBits)-1]
	l2 := r2.AvgStorageBits[len(r2.AvgStorageBits)-1]
	if l2 <= l1 {
		t.Fatalf("retention did not increase storage: %d vs %d", l2, l1)
	}
}

func TestDisableTrustIncreasesTraffic(t *testing.T) {
	base := smallConfig(10)
	s1, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	noTrust := base
	noTrust.DisableTrust = true
	s2, err := New(noTrust)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	c1 := r1.AvgConsensusBits[len(r1.AvgConsensusBits)-1]
	c2 := r2.AvgConsensusBits[len(r2.AvgConsensusBits)-1]
	if c2 <= c1 {
		t.Fatalf("TPS ablation should cost more traffic: with=%d without=%d", c1, c2)
	}
}

func TestRandomPeriodsReduceBlockCount(t *testing.T) {
	cfg := smallConfig(11)
	cfg.RandomPeriodMax = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks >= 12*30 {
		t.Fatal("random periods should reduce the block count")
	}
	if rep.Blocks <= 12*30/3 {
		t.Fatalf("block count %d too low for periods in {1,2}", rep.Blocks)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig(12)
	bad.BodyBytes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero body accepted")
	}
	bad = smallConfig(12)
	bad.Gamma = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative gamma accepted")
	}
	bad = smallConfig(12)
	bad.Malicious = -2
	if _, err := New(bad); err == nil {
		t.Fatal("negative malicious accepted")
	}
}

func TestSeriesRendering(t *testing.T) {
	s, err := New(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []int{rep.StorageSeries("s").Len(), rep.CommSeries("c").Len(),
		rep.ConstructionSeries("b").Len(), rep.ConsensusSeries("d").Len()} {
		if series != 30 {
			t.Fatalf("series length %d, want 30", series)
		}
	}
}

func TestProbeGammaSmall(t *testing.T) {
	cfg := ProbeConfig{
		Base: Config{
			Topo:            topology.Config{Nodes: 12, Width: 300, Height: 300, Range: 90, Seed: 21},
			Seed:            21,
			BodyBytes:       1000,
			Gamma:           3,
			RandomPeriodMax: 2,
		},
		MaxSlots: 20,
		Trials:   3,
		Stride:   2,
	}
	rep, err := RunProbe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 10 {
		t.Fatalf("probe points = %d, want 10", len(rep.Slots))
	}
	// Early slots must fail (no descendants yet); late slots succeed.
	if rep.FailureProb[0] != 1 {
		t.Fatalf("first probe failure prob = %v, want 1", rep.FailureProb[0])
	}
	if rep.SlotsToConsensus == -1 {
		t.Fatal("consensus never reached for γ=3 on a healthy network")
	}
	last := rep.FailureProb[len(rep.FailureProb)-1]
	if last != 0 {
		t.Fatalf("final failure prob %v, want 0", last)
	}
}

func TestProbeMoreMaliciousSlowsConsensus(t *testing.T) {
	// γ close to the honest population: with 5/14 silent nodes the
	// validator must reach 8 of the 9 remaining honest nodes, which is
	// much slower than the attack-free case (the Fig. 9(d) regime).
	base := Config{
		Topo:            topology.Config{Nodes: 14, Width: 300, Height: 300, Range: 90, Seed: 31},
		Seed:            31,
		BodyBytes:       1000,
		Gamma:           7,
		RandomPeriodMax: 2,
	}
	clean, err := RunProbe(ProbeConfig{Base: base, MaxSlots: 40, Trials: 4, Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	dirty := base
	dirty.Malicious = 5
	attacked, err := RunProbe(ProbeConfig{Base: dirty, MaxSlots: 40, Trials: 4, Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	if clean.SlotsToConsensus == -1 {
		t.Fatal("clean network never converged")
	}
	// Cumulative failure mass must not be lower under attack.
	sum := func(xs []float64) float64 {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		return total
	}
	if sum(attacked.FailureProb) < sum(clean.FailureProb) {
		t.Fatalf("attack made consensus easier: %v < %v",
			sum(attacked.FailureProb), sum(clean.FailureProb))
	}
}

func TestProbeValidation(t *testing.T) {
	if _, err := RunProbe(ProbeConfig{Base: smallConfig(1), MaxSlots: 0}); err == nil {
		t.Fatal("MaxSlots 0 accepted")
	}
}
