package cluster

import (
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/metrics"
)

// openUnder lists the files under dir that this process holds open,
// read from /proc/self/fd. The test skips where that cannot be read.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list this process's open files: %v", err)
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && (target == dir || strings.HasPrefix(target, dir+string(filepath.Separator))) {
			open = append(open, target)
		}
	}
	return open
}

// TestHostStartFailureReleasesDataDir: a Start that fails after the
// data dir opened — a hello to a member that died without a Leave, or
// a checkpoint Recover refuses — holds no file of the dir afterwards,
// so the operator can repair it or start again on it.
func TestHostStartFailureReleasesDataDir(t *testing.T) {
	t.Run("dead member hello", func(t *testing.T) {
		dir := t.TempDir()
		openUnder(t, dir)
		const seed = 7
		hosts := startHosts(t, 3, seed, nil)
		_ = hosts[2].dev.node.Close() // a crash: no Leave, still live in the directory
		_, err := Start(Config{
			Join: true, JoinAddr: hosts[0].Addr(),
			Nodes: 3, Seed: seed, Gamma: 1, Difficulty: 2,
			RequestTimeout: 2 * time.Second,
			DataDir:        dir,
		})
		if err == nil || !strings.Contains(err.Error(), "hello to n2") {
			t.Fatalf("join past a dead member: %v, want a failed hello to n2", err)
		}
		if open := openUnder(t, dir); len(open) != 0 {
			t.Fatalf("the failed Start holds %v open", open)
		}
	})
	t.Run("garbage checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		openUnder(t, dir)
		if err := os.Mkdir(filepath.Join(dir, "node-0"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "node-0", "checkpoint.2ldg"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Start(Config{
			ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2,
			RequestTimeout: 2 * time.Second,
			DataDir:        dir,
		})
		if err == nil || !strings.Contains(err.Error(), "recovering") {
			t.Fatalf("Start over a damaged checkpoint: %v, want a recovery error", err)
		}
		if open := openUnder(t, dir); len(open) != 0 {
			t.Fatalf("the failed Start holds %v open", open)
		}
	})
}

// TestRecoveryHostRefusesAnotherDevicesDir: a Host started as ID 1 on
// the data dir node 0 wrote fails with ErrWrongOwner as its log opens:
// it holds no file of the dir afterwards and leaves the dir byte for
// byte as it was, with no node-1/ made in it.
func TestRecoveryHostRefusesAnotherDevicesDir(t *testing.T) {
	dir := t.TempDir()
	openUnder(t, dir)
	cfg := Config{
		ID: 0, Nodes: 2, Seed: 7, Gamma: 1, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
		DataDir:        dir,
	}
	h, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Seal([]byte("node 0's")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	cfg.ID = 1
	if _, err := Start(cfg); !errors.Is(err, ledger.ErrWrongOwner) {
		t.Fatalf("node 1 on node 0's data dir: %v, want ErrWrongOwner", err)
	}
	if open := openUnder(t, dir); len(open) != 0 {
		t.Fatalf("the failed Start holds %v open", open)
	}
	if after := dirImage(t, dir); !maps.Equal(after, before) {
		t.Fatalf("the failed Start changed the data dir: %v, was %v",
			slices.Sorted(maps.Keys(after)), slices.Sorted(maps.Keys(before)))
	}
}

// dirImage reads the tree under dir: each directory's path below dir,
// ending in a separator, and each file's path with its bytes.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			img[rel+string(filepath.Separator)] = ""
			return nil
		}
		b, err := os.ReadFile(path)
		img[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRecoveryHostRefusesFlatLayout: a data dir that keeps its device's
// segment and checkpoint flat beside the log — the layout earlier
// builds of serve wrote, and ledger.OpenFileBackend still writes — is
// refused, the error naming the earlier build's layout, rather than
// recovered empty from node-<id>/. The dir is left byte for byte as it
// was, no file of it held open.
func TestRecoveryHostRefusesFlatLayout(t *testing.T) {
	dir := t.TempDir()
	openUnder(t, dir)
	mem, err := Start(Config{ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := mem.Seal([]byte("sealed before the upgrade"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mem.Block(ref)
	if err != nil {
		t.Fatal(err)
	}
	_ = mem.Close()

	fb, err := ledger.OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := block.DefaultParams()
	p.Difficulty = 2
	st, err := fb.Recover(ledger.RecoverOptions{Owner: 0, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(fb)
	if err := st.Store.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := fb.Compact(func() (*ledger.NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	for _, name := range []string{"wal.log", "blocks.seg", "checkpoint.2ldg"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("OpenFileBackend left no %s in the dir: %v", name, slices.Sorted(maps.Keys(before)))
		}
	}

	h, err := Start(Config{
		ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
		DataDir:        dir,
	})
	if err == nil {
		_ = h.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "layout of an earlier build") {
		t.Fatalf("Start over the flat layout: %v, want it refused as an earlier build's layout", err)
	}
	if open := openUnder(t, dir); len(open) != 0 {
		t.Fatalf("the failed Start holds %v open", open)
	}
	if !maps.Equal(dirImage(t, dir), before) {
		t.Fatal("the failed Start changed the data dir")
	}
}

// TestRecoveryServeDirLayout: serve's data dir is laid out as a
// Cluster's is. Once its device has sealed and compacted, the dir holds
// the log, wal.log, and node-<id>/ with the device's segment and
// checkpoint, and nothing else at its top level.
func TestRecoveryServeDirLayout(t *testing.T) {
	dir := t.TempDir()
	h, err := Start(Config{
		ID: 2, Nodes: 3, Seed: 7, Gamma: 0, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
		DataDir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SetSlot(1)
	if _, _, err := h.Seal([]byte("reading")); err != nil {
		t.Fatal(err)
	}
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"node-2" + string(filepath.Separator),
		filepath.Join("node-2", "blocks.seg"),
		filepath.Join("node-2", "checkpoint.2ldg"),
		"wal.log",
	}
	if got := slices.Sorted(maps.Keys(dirImage(t, dir))); !slices.Equal(got, want) {
		t.Fatalf("serve's data dir holds %v, want %v", got, want)
	}
}

// TestRecoveryHostRefusesEarlierBuildDir: a data dir whose WAL holds a
// record an earlier build wrote without its owner's tag — here a forget
// record, framed as those builds framed it — is refused as its log
// opens, the error naming the format, and the dir is left unheld.
func TestRecoveryHostRefusesEarlierBuildDir(t *testing.T) {
	dir := t.TempDir()
	openUnder(t, dir)
	forget := []byte{4, 4, 0, 0, 0, 7, 0, 0, 0, 0x37, 0x90, 0x37, 0x5d} // kind, length, node 7, CRC-32C
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), forget, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Start(Config{
		ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
		DataDir:        dir,
	})
	if err == nil || !strings.Contains(err.Error(), "earlier build") {
		t.Fatalf("Start over an earlier build's WAL: %v, want it refused as that build's format", err)
	}
	if open := openUnder(t, dir); len(open) != 0 {
		t.Fatalf("the failed Start holds %v open", open)
	}
}

// TestHostCommitObserverBehindMulti: a durable Host reports its WAL
// commit windows to an observer that takes them even when it sits
// behind events.Multi, as the in-process cluster does.
func TestHostCommitObserverBehindMulti(t *testing.T) {
	counters := &metrics.EventCounters{}
	hosts := startHosts(t, 1, 7, func(_ identity.NodeID, cfg *Config) {
		cfg.Gamma = 0 // one device: no neighbour can vouch
		cfg.DataDir = t.TempDir()
		cfg.Observer = events.Multi(counters, events.Nop{})
	})
	if err := sealAndFlush(hosts[0], []byte("reading")); err != nil {
		t.Fatal(err)
	}
	if got := counters.BlocksSealed(); got != 1 {
		t.Fatalf("BlocksSealed = %d, want 1", got)
	}
	if got := counters.WALFsyncs(); got < 1 {
		t.Fatalf("WALFsyncs = %d after a durable Seal+Flush, want at least 1", got)
	}
}
