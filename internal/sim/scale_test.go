package sim

import (
	"os"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/topology"
)

// TestScaleRun10k is the simulator's scale-validation run: a seeded
// 10k-node small-world network driven for 500 slots with audit duty
// live, on ten thousand plain per-node stores and per-node fan-outs. It
// asserts the run completes with bounded memory and logs the headline
// numbers (blocks, audits, wall-clock, heap per node). The run takes
// ~20 minutes on one core, so it is opt-in:
//
//	TWOLDAG_SCALE_RUN=1 go test -run TestScaleRun10k -timeout 60m ./internal/sim/
func TestScaleRun10k(t *testing.T) {
	if os.Getenv("TWOLDAG_SCALE_RUN") == "" {
		t.Skip("set TWOLDAG_SCALE_RUN=1 to run the ~20-minute scale acceptance run")
	}
	g, err := topology.SmallWorld(topology.SmallWorldConfig{
		Nodes: 10_000, K: 3, Beta: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Graph:     g,
		Seed:      1,
		Slots:     500,
		BodyBytes: 100_000,
		Gamma:     8,
		VerifyLag: 8,
		// Bounded H_i: 4.2M audits retain ~9 chain headers each, so the
		// unbounded default would grow past this container's RAM; the
		// cap keeps the 500-slot horizon at a steady-state footprint.
		TrustCap:       1024,
		SampleMemStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := s.Run()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 10_000*500 {
		t.Fatalf("blocks = %d, want %d", rep.Blocks, 10_000*500)
	}
	if rep.Audits == 0 {
		t.Fatal("no audits ran")
	}
	if rep.Mem == nil {
		t.Fatal("no memory sample")
	}
	// Bounded memory: each of the 5M sealed blocks lives once, in its
	// owner's log; anything past ~10 MB/node would mean nodes went back
	// to holding copies of each other's blocks.
	if rep.Mem.BytesPerNode > 10<<20 {
		t.Fatalf("heap = %d bytes/node, want < 10 MB/node", rep.Mem.BytesPerNode)
	}
	t.Logf("10k nodes x 500 slots: %d blocks, %d audits (%d failures), %.0fs wall, %.0f KB heap/node (%.1f GB total)",
		rep.Blocks, rep.Audits, rep.Failures, elapsed.Seconds(),
		float64(rep.Mem.BytesPerNode)/1024, float64(rep.Mem.HeapInuseBytes)/(1<<30))
}
