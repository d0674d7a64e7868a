package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// reportHash is the SHA-256 of a canonical encoding of r: every field
// but Mem (process heap statistics, not a function of the Config), as
// JSON in declaration order.
func reportHash(t *testing.T, r *Report) string {
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

// TestReportGolden pins the simulator's Report bit for bit across
// refactors of the slot scheduler: the hashes were taken on an earlier
// scheduler and every change since must reproduce them. The inputs are
// the churn run (silent malicious nodes, retention accounting, a
// mid-run Silence and JoinNode) at GOMAXPROCS 1 and 4, and a capped
// trust store under randomized generation periods.
func TestReportGolden(t *testing.T) {
	periodic := func(procs int) *Report {
		t.Helper()
		setGOMAXPROCS(t, procs)
		cfg := smallConfig(7)
		cfg.RandomPeriodMax = 3
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
	const (
		churnWant    = "3c88cb501fccf24cbbd37e99581adf74b025ff99d532869ac73086ae768391a6"
		periodicWant = "39d4065b41dc2793102f07f101d95c48f410c7490a4c647d8ab8b5ce9959265d"
	)
	for _, procs := range []int{1, 4} {
		if got := reportHash(t, churnRun(t, procs)); got != churnWant {
			t.Errorf("churn run, GOMAXPROCS=%d: report hash %s, want %s", procs, got, churnWant)
		}
		if got := reportHash(t, periodic(procs)); got != periodicWant {
			t.Errorf("trust cap + random periods, GOMAXPROCS=%d: report hash %s, want %s", procs, got, periodicWant)
		}
	}
}
