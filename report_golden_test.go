package twoldag

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// simReportHash is the SHA-256 of a canonical encoding of r: every
// field but Mem, as JSON in declaration order.
func simReportHash(t *testing.T, r *SimReport) string {
	t.Helper()
	cp := *r
	cp.Mem = nil
	enc, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// TestSimDriverReportGolden is the facade twin of the simulator's
// TestReportGolden: SimDriver.RunSlots reports pinned bit for bit, the
// hashes taken on an earlier slot scheduler. The inputs are a churn run
// (two silent malicious nodes, a Silence and a Join between two
// RunSlots calls) at GOMAXPROCS 1 and 4, and a run with a capped
// trust store.
func TestSimDriverReportGolden(t *testing.T) {
	newSim := func(procs int, opts ...Option) *SimDriver {
		t.Helper()
		setGOMAXPROCS(t, procs)
		rt := newRuntime(t, append([]Option{
			WithSimulator(), WithNodes(12), WithGamma(3), WithSeed(42),
			WithDifficulty(0), WithBodyBytes(1000),
		}, opts...)...)
		return rt.(*SimDriver)
	}
	churn := func(procs int) *SimReport {
		t.Helper()
		sd := newSim(procs, WithMalicious(2))
		if err := sd.RunSlots(14); err != nil {
			t.Fatal(err)
		}
		bad := map[NodeID]bool{}
		for _, id := range sd.MaliciousNodes() {
			bad[id] = true
		}
		for _, id := range sd.Nodes() {
			if !bad[id] {
				if err := sd.Silence(id); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		if _, err := sd.Join(); err != nil {
			t.Fatal(err)
		}
		if err := sd.RunSlots(16); err != nil {
			t.Fatal(err)
		}
		return sd.Report()
	}
	capped := func(procs int) *SimReport {
		t.Helper()
		sd := newSim(procs, WithTrustCap(8))
		if err := sd.RunSlots(30); err != nil {
			t.Fatal(err)
		}
		return sd.Report()
	}
	const (
		churnWant  = "1f3fa29cf874613aea7ba6ba2e3d8d46933178f6950c662dd65feaccf25053dd"
		cappedWant = "1cc288d3deb27778b1b953aecf571742d65a4a5efc3b431d936b6986e8d27a11"
	)
	for _, procs := range []int{1, 4} {
		if got := simReportHash(t, churn(procs)); got != churnWant {
			t.Errorf("churn run, GOMAXPROCS=%d: report hash %s, want %s", procs, got, churnWant)
		}
		if got := simReportHash(t, capped(procs)); got != cappedWant {
			t.Errorf("trust cap, GOMAXPROCS=%d: report hash %s, want %s", procs, got, cappedWant)
		}
	}
}
