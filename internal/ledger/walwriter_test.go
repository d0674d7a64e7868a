package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// openBackendWith mirrors openBackend with backend options (sync
// policy, commit observer).
func openBackendWith(t *testing.T, dir string, opts RecoverOptions, bopts ...BackendOption) (*FileBackend, *NodeState) {
	t.Helper()
	fb, err := OpenFileBackend(dir, bopts...)
	if err != nil {
		t.Fatalf("OpenFileBackend: %v", err)
	}
	st, err := fb.Recover(opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	st.Attach(fb)
	return fb, st
}

func TestSyncPolicyParseStringRoundtrip(t *testing.T) {
	for _, s := range []string{"always", "batch", "interval=50ms"} {
		p, err := ParseSyncPolicy(s)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", s, err)
		}
		if p.String() != s {
			t.Errorf("ParseSyncPolicy(%q).String() = %q", s, p.String())
		}
		q, err := ParseSyncPolicy(p.String())
		if err != nil || q != p {
			t.Errorf("roundtrip of %q: %v %v", s, q, err)
		}
	}
	// The empty string and the zero value are the per-block default.
	if p, err := ParseSyncPolicy(""); err != nil || !p.PerBlock() {
		t.Fatalf("empty policy: %v %v", p, err)
	}
	var zero SyncPolicy
	if !zero.PerBlock() || zero.Validate() != nil || zero.String() != "always" {
		t.Fatal("zero SyncPolicy is not SyncAlways")
	}
	if SyncBatch().PerBlock() || !SyncBatch().Batched() {
		t.Fatal("SyncBatch predicates wrong")
	}
	if SyncInterval(time.Second).Every() != time.Second || SyncAlways().Every() != 0 {
		t.Fatal("Every() wrong")
	}
	for _, s := range []string{"sometimes", "interval=", "interval=-5ms", "interval=0"} {
		if _, err := ParseSyncPolicy(s); err == nil {
			t.Errorf("ParseSyncPolicy(%q) accepted", s)
		}
	}
	if err := SyncInterval(0).Validate(); err == nil {
		t.Fatal("SyncInterval(0) validated")
	}
}

// commitLog is a test CommitObserver recording every window.
type commitLog struct {
	mu      sync.Mutex
	windows []int
	bytes   int64
}

func (c *commitLog) OnWALCommit(blocks int, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windows = append(c.windows, blocks)
	c.bytes += n
}

// TestRecoveryGroupCommitBatchWindow pins the SyncBatch contract: a
// whole window of staged block records is acknowledged by exactly one
// fsync at Commit, the observer sees the window, an empty Commit is
// free, and everything committed survives a reopen.
func TestRecoveryGroupCommitBatchWindow(t *testing.T) {
	dir := t.TempDir()
	obs := &commitLog{}
	fb, st := openBackendWith(t, dir, walOpts(), WithSyncPolicy(SyncBatch()), WithCommitObserver(obs))
	key := identity.Deterministic(1, 1)
	blocks := chainFor(t, key, 5, nil)
	for _, b := range blocks {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if stats := fb.WALStats(); stats.Fsyncs != 0 {
		t.Fatalf("%d fsyncs before Commit under SyncBatch", stats.Fsyncs)
	}
	if fb.PendingBlocks() != 5 {
		t.Fatalf("pending = %d, want 5", fb.PendingBlocks())
	}
	if err := fb.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	stats := fb.WALStats()
	if stats.Fsyncs != 1 {
		t.Fatalf("%d fsyncs for one 5-block window, want 1", stats.Fsyncs)
	}
	if stats.BytesCommitted == 0 {
		t.Fatal("no bytes accounted to the window")
	}
	obs.mu.Lock()
	windows, obsBytes := append([]int(nil), obs.windows...), obs.bytes
	obs.mu.Unlock()
	if len(windows) != 1 || windows[0] != 5 || obsBytes != stats.BytesCommitted {
		t.Fatalf("observer saw windows=%v bytes=%d, stats=%+v", windows, obsBytes, stats)
	}
	// Nothing staged: Commit is a no-op, not another fsync.
	if err := fb.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := fb.WALStats().Fsyncs; got != 1 {
		t.Fatalf("empty Commit fsynced (%d total)", got)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, walOpts())
	defer fb2.Close()
	if st2.Store.Len() != 5 {
		t.Fatalf("recovered %d blocks, want 5", st2.Store.Len())
	}
}

// TestRecoveryGroupCommitConcurrentAlways hammers the SyncAlways path
// with concurrent LogBlock callers: every caller must be acknowledged
// (its record fsync-covered) and the backend must stay recoverable.
// The callers all log the same seq-0 block, so replay idempotency
// collapses them to one stored block — WAL order is irrelevant.
func TestRecoveryGroupCommitConcurrentAlways(t *testing.T) {
	dir := t.TempDir()
	fb, _ := openBackendWith(t, dir, walOpts())
	key := identity.Deterministic(1, 1)
	b0 := chainFor(t, key, 1, nil)[0]

	const workers, per = 4, 8
	errs := make(chan error, workers*per)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				errs <- fb.LogBlock(b0)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats := fb.WALStats()
	if stats.Fsyncs < 1 || stats.Fsyncs > workers*per {
		t.Fatalf("fsyncs = %d for %d acknowledged records", stats.Fsyncs, workers*per)
	}
	t.Logf("group commit: %d records acknowledged by %d fsyncs", workers*per, stats.Fsyncs)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, walOpts())
	defer fb2.Close()
	if st2.Store.Len() != 1 {
		t.Fatalf("recovered %d blocks, want 1", st2.Store.Len())
	}
}

// TestRecoveryUnackedDiscardAfterCrash is the batched-policy crash
// proof. A SIGKILL cannot evict the page cache, so the on-disk image a
// test reads back always contains staged-but-unacknowledged records;
// the power-loss outcome is emulated by copying the WAL and cutting it
// inside the open window (anywhere past the last fsync acknowledgement
// is fair game for real loss). Recovery must keep every acknowledged
// block, account the discarded tail, and produce a state byte-identical
// to an uninterrupted run over the surviving prefix.
func TestRecoveryUnackedDiscardAfterCrash(t *testing.T) {
	dir := t.TempDir()
	fb, st := openBackendWith(t, dir, walOpts(), WithSyncPolicy(SyncBatch()))
	key := identity.Deterministic(1, 1)
	blocks := chainFor(t, key, 5, nil)
	for _, b := range blocks[:3] {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Commit(); err != nil { // acknowledgement point: 3 blocks durable
		t.Fatal(err)
	}
	for _, b := range blocks[3:] { // staged, never acknowledged
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	fb.log.mu.Lock()
	synced, good := fb.log.syncedOff, fb.log.goodOff
	fb.log.mu.Unlock()
	if synced >= good || synced%3 != 0 {
		t.Fatalf("offsets synced=%d good=%d", synced, good)
	}
	recLen := synced / 3 // three identical committed records
	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != good {
		t.Fatalf("wal.log holds %d bytes, staged %d", len(raw), good)
	}

	// Oracle states: an uninterrupted node that only ever sealed the
	// first k blocks.
	oracle := func(k int) []byte {
		st := walState()
		for _, b := range blocks[:k] {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		return stateBytes(t, st)
	}

	for _, tc := range []struct {
		name       string
		cut        int64
		wantBlocks int
		torn       bool
		tornBytes  int64
	}{
		// Mid-record cuts discard the tear; the acknowledged prefix is
		// the floor, intact unacknowledged records above it may survive.
		{"mid-first-unacked", synced + 1, 3, true, 1},
		{"mid-last-record", good - 1, 4, true, recLen - 1},
		{"window-boundary", good, 5, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, walFileName), raw[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			fb2, st2 := openBackend(t, cdir, walOpts())
			defer fb2.Close()
			if st2.Store.Len() != tc.wantBlocks {
				t.Fatalf("recovered %d blocks, want %d", st2.Store.Len(), tc.wantBlocks)
			}
			rep := fb2.RecoveryReport()
			if rep.TornTail != tc.torn || int64(rep.TornBytes) != tc.tornBytes {
				t.Fatalf("report torn=%v bytes=%d, want torn=%v bytes=%d",
					rep.TornTail, rep.TornBytes, tc.torn, tc.tornBytes)
			}
			if rep.WALBlocks != tc.wantBlocks {
				t.Fatalf("report WALBlocks = %d, want %d", rep.WALBlocks, tc.wantBlocks)
			}
			if !bytes.Equal(stateBytes(t, st2), oracle(tc.wantBlocks)) {
				t.Fatal("recovered state differs from an uninterrupted run over the same prefix")
			}
		})
	}
	_ = fb.Close()
}

// TestRecoveryIntervalPolicyCommits: under SyncInterval the committer's
// ticker closes windows without any caller involvement — a staged
// block becomes durable within the interval (bounded staleness).
func TestRecoveryIntervalPolicyCommits(t *testing.T) {
	dir := t.TempDir()
	fb, st := openBackendWith(t, dir, walOpts(), WithSyncPolicy(SyncInterval(2*time.Millisecond)))
	key := identity.Deterministic(1, 1)
	if err := st.Store.Append(chainFor(t, key, 1, nil)[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fb.WALStats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval committer never closed the window")
		}
		time.Sleep(time.Millisecond)
	}
	if stats := fb.WALStats(); stats.BytesCommitted == 0 {
		t.Fatalf("fsync with no bytes accounted: %+v", stats)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, st2 := openBackend(t, dir, walOpts())
	defer fb2.Close()
	if st2.Store.Len() != 1 {
		t.Fatalf("recovered %d blocks, want 1", st2.Store.Len())
	}
}

// TestRecoveryParallelSerialEquivalence is the tentpole equivalence
// proof for parallel replay: over clean, torn, forged, gapped and
// wrong-owner fixtures — WAL-heavy and snapshot-heavy — Recover with
// Workers=1 and Workers=4 must return byte-identical states, identical
// reports, and identical error strings. Parallelism may never change
// what recovery accepts, rejects, or says.
func TestRecoveryParallelSerialEquivalence(t *testing.T) {
	key := identity.Deterministic(1, 1)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		t.Fatal(err)
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), Ring: ring}
	blocks := chainFor(t, key, 6, nil)

	// cleanDir: six own blocks plus lazy-tier records, all in wal.log.
	cleanDir := func(t *testing.T) string {
		dir := t.TempDir()
		fb, st := openBackendWith(t, dir, opts, WithSyncPolicy(SyncBatch()))
		for _, b := range blocks {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range chainFor(t, identity.Deterministic(9, 1), 2, nil) {
			st.Trust.Add(b.Header.Clone())
		}
		st.Cache.Update(9, digest.Sum([]byte("nine")))
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	walOnly := func(t *testing.T, recs ...[]byte) string {
		dir := t.TempDir()
		var log []byte
		for _, r := range recs {
			log = appendWALRecord(log, walKindBlock, r)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	fixtures := []struct {
		name string
		mk   func(t *testing.T) string
	}{
		{"wal", cleanDir},
		{"snapshot", func(t *testing.T) string {
			dir := cleanDir(t)
			fb, _ := openBackendWith(t, dir, opts) // Recover normalizes: snapshot + empty WAL
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"torn-tail", func(t *testing.T) string {
			dir := cleanDir(t)
			path := filepath.Join(dir, walFileName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"forged-block", func(t *testing.T) string {
			forged := blocks[1].Clone()
			forged.Body[0] ^= 0xFF // valid frame CRC, fails Ring verification
			return walOnly(t, block.Encode(blocks[0]), block.Encode(forged))
		}},
		{"seq-gap", func(t *testing.T) string {
			return walOnly(t, block.Encode(blocks[1]))
		}},
		{"wrong-owner", func(t *testing.T) string {
			foreign := chainFor(t, identity.Deterministic(2, 1), 1, nil)[0]
			return walOnly(t, block.Encode(foreign))
		}},
		{"forged-snapshot-block", func(t *testing.T) string {
			// Tamper a block *after* it entered the store, then snapshot:
			// the CRC covers the tampered bytes (so it passes), and only
			// the cryptographic re-verification can catch it.
			st := walState()
			for _, b := range blocks[:3] {
				if err := st.Store.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			tampered, err := st.Store.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			tampered.Body[0] ^= 0xFF
			dir := t.TempDir()
			var buf bytes.Buffer
			if err := st.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapshotFileName), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			tampered.Body[0] ^= 0xFF // restore the shared fixture block
			return dir
		}},
	}

	type outcome struct {
		err    string
		state  []byte
		report RecoveryReport
	}
	recoverWith := func(t *testing.T, src string, workers int) outcome {
		cdir := t.TempDir()
		copyLedgerDir(t, src, cdir) // Recover normalizes the dir; keep the fixture pristine
		fb, err := OpenFileBackend(cdir)
		if err != nil {
			t.Fatal(err)
		}
		defer fb.Close()
		o := opts
		o.Workers = workers
		st, err := fb.Recover(o)
		if err != nil {
			return outcome{err: err.Error()}
		}
		rep := fb.RecoveryReport()
		rep.Duration = 0 // wall time; everything else must match exactly
		return outcome{state: stateBytes(t, st), report: rep}
	}

	for _, fix := range fixtures {
		t.Run(fix.name, func(t *testing.T) {
			dir := fix.mk(t)
			serial := recoverWith(t, dir, 1)
			parallel := recoverWith(t, dir, 4)
			if serial.err != parallel.err {
				t.Fatalf("error diverged:\n  serial:   %q\n  parallel: %q", serial.err, parallel.err)
			}
			if serial.err != "" {
				return
			}
			if !bytes.Equal(serial.state, parallel.state) {
				t.Fatal("recovered states diverged between serial and parallel replay")
			}
			if serial.report != parallel.report {
				t.Fatalf("reports diverged:\n  serial:   %+v\n  parallel: %+v", serial.report, parallel.report)
			}
		})
	}
}
