package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// TestWALWritesPerWindow pins the write(2) count of the log: records
// are framed into one buffer and written when something needs them in
// the kernel — a window close, Flush, a LogBlock that acknowledges no
// fsync, a full buffer — not one write per record.
func TestWALWritesPerWindow(t *testing.T) {
	p := testParams()
	t.Run("staged round", func(t *testing.T) {
		// 32 devices of one process: each takes in 8 announcements, then
		// seals and stages. One Commit closes the round.
		const owners, digests = 32, 8
		for _, policy := range []SyncPolicy{SyncAlways(), SyncBatch()} {
			for _, body := range []int{1 << 10, 2 << 10} {
				t.Run(fmt.Sprintf("%s/body=%d", policy, body), func(t *testing.T) {
					c := newByteCounter()
					base := t.TempDir()
					l, err := OpenLog(base, WithWALFile(c.wrap), WithSyncPolicy(policy))
					if err != nil {
						t.Fatal(err)
					}
					defer l.Close()
					fbs := make([]*FileBackend, owners)
					sts := make([]*NodeState, owners)
					blocks := make([]*block.Block, owners)
					for i := range fbs {
						o := identity.NodeID(i + 1)
						if fbs[i], err = l.OpenBackend(filepath.Join(base, fmt.Sprintf("node-%d", o))); err != nil {
							t.Fatal(err)
						}
						if sts[i], err = fbs[i].Recover(RecoverOptions{Owner: o, Params: p}); err != nil {
							t.Fatal(err)
						}
						sts[i].Attach(fbs[i])
						if blocks[i], err = p.Build(identity.Deterministic(o, 4), 0, 0, make([]byte, body), []block.DigestRef{{Node: o}}); err != nil {
							t.Fatal(err)
						}
					}
					for i := range fbs {
						for k := 0; k < digests; k++ {
							sts[i].Cache.Update(identity.NodeID(100+k), digest.Sum([]byte{byte(i), byte(k)}))
						}
						if err := fbs[i].StageBlock(blocks[i]); err != nil {
							t.Fatal(err)
						}
					}
					if err := l.Commit(); err != nil {
						t.Fatal(err)
					}
					for i := range fbs {
						if err := sts[i].Store.Append(blocks[i]); err != nil {
							t.Fatal(err)
						}
					}
					writes, syncs := c.calls(walFileName)
					info, err := os.Stat(filepath.Join(base, walFileName))
					if err != nil {
						t.Fatal(err)
					}
					want := 1
					if info.Size() >= walBufferLimit {
						want = 2 // the bound splits the round
					}
					if writes != want || syncs != 1 {
						t.Fatalf("a round of %d bytes took %d writes and %d fsyncs, want %d and 1 (one write per record is %d)",
							info.Size(), writes, syncs, want, owners*(digests+1))
					}
				})
			}
		}
	})

	t.Run("lazy records only", func(t *testing.T) {
		h := chainFor(t, identity.Deterministic(9, 4), 1, nil)[0].Header.Clone()
		logLazy := func(t *testing.T, st *NodeState, c *byteCounter) {
			t.Helper()
			st.Trust.Add(h)
			st.Cache.Update(7, digest.Sum([]byte("d")))
			st.Cache.Forget(7)
			if writes, syncs := c.calls(walFileName); writes != 0 || syncs != 0 {
				t.Fatalf("three lazy records took %d writes and %d fsyncs, want none", writes, syncs)
			}
		}
		for _, tc := range []struct {
			name  string
			run   func(fb *FileBackend) error
			syncs int
		}{
			{"Commit", (*FileBackend).Commit, 1},
			{"Sync", (*FileBackend).Sync, 1},
			{"Close", (*FileBackend).Close, 1},
			{"Flush", (*FileBackend).Flush, 0},
		} {
			t.Run(tc.name, func(t *testing.T) {
				c := newByteCounter()
				dir := t.TempDir()
				fb, st := openBackendWith(t, dir, walOpts(), WithWALFile(c.wrap))
				defer fb.Close()
				logLazy(t, st, c)
				if err := tc.run(fb); err != nil {
					t.Fatal(err)
				}
				if writes, syncs := c.calls(walFileName); writes != 1 || syncs != tc.syncs {
					t.Fatalf("%s took %d writes and %d fsyncs, want 1 and %d", tc.name, writes, syncs, tc.syncs)
				}
				fb2, st2 := openBackend(t, copyDir(t, dir), walOpts())
				defer fb2.Close()
				if !bytes.Equal(stateBytes(t, st2), stateBytes(t, st)) {
					t.Fatalf("the records %s wrote do not recover the state", tc.name)
				}
			})
		}
		t.Run("bound", func(t *testing.T) {
			c := newByteCounter()
			fb, st := openBackendWith(t, t.TempDir(), walOpts(), WithWALFile(c.wrap))
			defer fb.Close()
			logged := 0
			for i := 0; logged < walBufferLimit; i++ {
				st.Cache.Update(identity.NodeID(100+i%64), digest.Sum([]byte{byte(i)}))
				logged += walHeaderLen + 4 + digest.Size + walCRCLen
				want := 0
				if logged >= walBufferLimit {
					want = 1
				}
				if writes, _ := c.calls(walFileName); writes != want {
					t.Fatalf("%d writes with %d bytes logged, want %d", writes, logged, want)
				}
			}
		})
	})

	t.Run("SyncBatch LogBlock", func(t *testing.T) {
		c := newByteCounter()
		dir := t.TempDir()
		fb, st := openBackendWith(t, dir, walOpts(), WithWALFile(c.wrap), WithSyncPolicy(SyncBatch()))
		defer fb.Close()
		st.Cache.Update(7, digest.Sum([]byte("before the block")))
		if err := st.Store.Append(chainFor(t, identity.Deterministic(1, 1), 1, nil)[0]); err != nil {
			t.Fatal(err)
		}
		if writes, syncs := c.calls(walFileName); writes != 1 || syncs != 0 {
			t.Fatalf("LogBlock under SyncBatch took %d writes and %d fsyncs, want 1 and 0", writes, syncs)
		}
		// What a process kill leaves: the block and the digest before it.
		fb2, st2 := openBackend(t, copyDir(t, dir), walOpts())
		defer fb2.Close()
		if !bytes.Equal(stateBytes(t, st2), stateBytes(t, st)) {
			t.Fatal("the written block does not recover")
		}
	})
}

// copyDir copies a single-owner data dir, as a process kill leaves it,
// to a fresh one.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	cdir := t.TempDir()
	copyLedgerDir(t, dir, cdir)
	return cdir
}

// syncTracker follows the data dir's current wal.log through the file
// seam and notes how many of its bytes the last fsync covered: what a
// power loss leaves of it. (A segment or checkpoint only ever gets a
// name a recovery reads once fsynced; TestSharedLogCrashMatrix and
// TestCheckpointFaults cut those.)
type syncTracker struct {
	mu     sync.Mutex
	cur    *os.File
	synced int64
}

func (s *syncTracker) option() BackendOption {
	return WithWALFile(func(f WALFile) WALFile {
		of, ok := f.(*os.File)
		if !ok || filepath.Base(of.Name()) != walFileName {
			return f
		}
		s.mu.Lock()
		s.cur, s.synced = of, 0 // a fresh generation: nothing of it synced
		s.mu.Unlock()
		return trackedFile{f, of, s}
	})
}

func (s *syncTracker) syncedLen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced
}

type trackedFile struct {
	WALFile
	f *os.File
	s *syncTracker
}

func (f trackedFile) Sync() error {
	if err := f.WALFile.Sync(); err != nil {
		return err
	}
	info, err := f.f.Stat()
	if err != nil {
		return err
	}
	f.s.mu.Lock()
	if f.s.cur == f.f {
		f.s.synced = info.Size()
	}
	f.s.mu.Unlock()
	return nil
}

// TestWALCrashImages is the durability proof of the buffered log, the
// test itself discarding what a crash would: a seeded workload over a
// shared log — staged rounds, LogBlock, trust, digest and forget
// records, Flush, Commit and a compaction — stops at seeded points to
// take two images of the data dir. A process kill leaves every byte
// written (the kernel's copy); a power loss only what the last fsync of
// wal.log covered. Both must recover, and every owner as a record
// prefix of its run: the state it had after some number of its own
// operations, at least as many as the last call that vouched for them
// — LogBlock under SyncBatch or SyncInterval and Flush vouch for a
// process kill; LogBlock under SyncAlways, Commit and a compaction for a
// power loss too. So every block a LogBlock or Commit acknowledged is
// in the image it was acknowledged for.
func TestWALCrashImages(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3, 4}
	fx := newWorldFixture(t, owners, 80)
	for _, policy := range []SyncPolicy{SyncAlways(), SyncBatch(), SyncInterval(time.Hour)} {
		t.Run(policy.String(), func(t *testing.T) {
			var tracker syncTracker
			base := t.TempDir()
			w := newWorld(t, base, true, tracker.option(), WithSyncPolicy(policy))
			defer func() { w.close() }()
			// The run: which owner each operation was, every owner's state
			// after each of its own, and how many operations the last calls
			// that vouched for a kill and for a power loss covered.
			var ops []identity.NodeID
			snaps := map[identity.NodeID][][]byte{}
			for _, o := range owners {
				w.open(o)
				snaps[o] = [][]byte{stateBytes(t, w.sts[o])}
			}
			did := func(o identity.NodeID) {
				ops = append(ops, o)
				snaps[o] = append(snaps[o], stateBytes(t, w.sts[o]))
			}
			killFloor, lossFloor := 0, 0
			vouched := func(loss bool) {
				killFloor = len(ops)
				if loss {
					lossFloor = len(ops)
				}
			}
			check := func(step int) {
				t.Helper()
				kill := dirImage(t, base)
				loss := map[string][]byte{}
				for name, data := range kill {
					loss[name] = data
				}
				loss[walFileName] = loss[walFileName][:tracker.syncedLen()]
				for _, im := range []struct {
					name  string
					img   map[string][]byte
					floor int
				}{{"process kill", kill, killFloor}, {"power loss", loss, lossFloor}} {
					got := recoverImage(t, im.img, true, owners)
					for _, o := range owners {
						floor := 0
						for _, op := range ops[:im.floor] {
							if op == o {
								floor++
							}
						}
						if !slices.ContainsFunc(snaps[o][floor:], func(s []byte) bool { return bytes.Equal(s, got[o]) }) {
							t.Fatalf("step %d, %s: owner %v recovered no state its run had after %d or more of its %d operations",
								step, im.name, o, floor, len(snaps[o])-1)
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(31))
			for step := 0; step < 150; step++ {
				o := owners[rng.Intn(len(owners))]
				switch p := rng.Intn(20); {
				case step == 75:
					if err := w.compact(); err != nil {
						t.Fatal(err)
					}
					vouched(true)
				case p < 8:
					w.apply(fx, worldOp{kind: 1 + p%3, owner: o, arg: rng.Intn(worldForeign)})
					did(o)
				case p < 12:
					w.apply(fx, worldOp{kind: 0, owner: o})
					did(o)
					vouched(policy.PerBlock())
				case p < 16:
					// A staged round of the owners from o on.
					round := owners[slices.Index(owners, o):]
					for _, r := range round {
						st := w.sts[r]
						if err := w.fbs[r].StageBlock(fx.chains[r][st.Store.Len()]); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.log.Commit(); err != nil {
						t.Fatal(err)
					}
					for _, r := range round {
						w.apply(fx, worldOp{kind: 0, owner: r})
						did(r)
					}
					vouched(true)
				case p < 18:
					if err := w.log.Flush(); err != nil {
						t.Fatal(err)
					}
					vouched(false)
				default:
					if err := w.log.Commit(); err != nil {
						t.Fatal(err)
					}
					vouched(true)
				}
				if rng.Intn(6) == 0 || step == 149 {
					check(step)
				}
			}
		})
	}
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
