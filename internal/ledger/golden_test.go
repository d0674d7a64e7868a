package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFileBackendBytesGolden pins what the data dir of one device (the
// layout `serve` and the benchmark drills use) holds on disk, byte for
// byte: the WAL generation after a fixed workload, the checkpoint and
// segment a compaction commits, and the generation that follows. Each
// WAL generation less its owner tags is the image the dir held before
// every log wrote them, pinned by the hashes it had then; the
// checkpoint and segment were never tagged and have not moved.
func TestFileBackendBytesGolden(t *testing.T) {
	dir := t.TempDir()
	fb, st := openBackend(t, dir, RecoverOptions{Owner: 4, Params: testParams(), TrustCap: 1})
	read := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	check := func(what string, raw []byte, want string) {
		t.Helper()
		h := sha256.Sum256(raw)
		if got := hex.EncodeToString(h[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", what, got, want)
		}
	}
	checkWAL := func(what, want, untagged string) {
		t.Helper()
		raw := read(walFileName)
		check(what, raw, want)
		check(what+" less its tags", untagWAL(t, raw), untagged)
	}
	driveState(t, st, 3)
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	checkWAL("first generation", "9d52d4d065173a9b75aa386f396bf71ad93268eca6996dd79f837d98ed05ec00",
		"7a092d819e3d608b1c22d579cd01bbca614cee5d998d569966c94d20e7d9c342")
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	check("checkpoint", read(checkpointFileName), "378ece951227d27920fadcab87cfadb3500a3aae3fee14bf5aec2c1ee8d58d2d")
	check("segment", read(segmentFileName), "6a275e04642385c26fbf933d0a56f9f1a4ccbb48380e970fcb901967a9ea5bb5")
	driveState(t, st, 2)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	checkWAL("second generation", "94cafac2d6c5bbdb5afa139b714ba7d5d8900afd4c4f02dcea902530a3e86fad",
		"16909865a0bd62b62226631aaa09f1a0e01223a0421158f533c2d14e9f22431a")
}
