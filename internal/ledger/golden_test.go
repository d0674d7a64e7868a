package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestSingleOwnerBytesGolden pins what a single-owner data dir (the
// layout `serve` and the benchmark drills use) holds on disk, byte for
// byte: the WAL generation after a fixed workload, the checkpoint and
// segment a compaction folds it into, and the generation that follows.
// The two WAL hashes were taken on the commit before the log became a
// type of its own and have not moved since — WAL bytes are the same
// whatever the compaction writes.
func TestSingleOwnerBytesGolden(t *testing.T) {
	dir := t.TempDir()
	fb, st := openBackend(t, dir, RecoverOptions{Owner: 4, Params: testParams(), TrustCap: 1})
	sum := func(name string) string {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(raw)
		return hex.EncodeToString(h[:])
	}
	check := func(what, name, want string) {
		t.Helper()
		if got := sum(name); got != want {
			t.Errorf("%s: sha256 %s, want %s", what, got, want)
		}
	}
	driveState(t, st, 3)
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	check("first generation", walFileName, "7a092d819e3d608b1c22d579cd01bbca614cee5d998d569966c94d20e7d9c342")
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	check("checkpoint", checkpointFileName, "378ece951227d27920fadcab87cfadb3500a3aae3fee14bf5aec2c1ee8d58d2d")
	check("segment", segmentFileName, "6a275e04642385c26fbf933d0a56f9f1a4ccbb48380e970fcb901967a9ea5bb5")
	driveState(t, st, 2)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	check("second generation", walFileName, "16909865a0bd62b62226631aaa09f1a0e01223a0421158f533c2d14e9f22431a")
}
