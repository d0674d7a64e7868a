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

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// openBackendWith mirrors openBackend with backend options (file seam,
// commit observer).
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

// count returns how many windows have closed: one fsync each.
func (c *commitLog) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.windows)
}

// TestRecoveryGroupCommitBatchWindow pins the staged round's window:
// N owners of one shared log stage a block each, and one Commit
// acknowledges all N with exactly one fsync, which the observer sees as
// one window of N. The appends that follow find their records durable
// and fsync nothing, an empty Commit is free, and everything committed
// survives a reopen. A round of one is a single device's seal.
func TestRecoveryGroupCommitBatchWindow(t *testing.T) {
	for _, n := range []int{5, 1} {
		t.Run(fmt.Sprintf("owners=%d", n), func(t *testing.T) {
			owners := make([]identity.NodeID, n)
			for i := range owners {
				owners[i] = identity.NodeID(i + 1)
			}
			fx := newWorldFixture(t, owners, 1)
			base := t.TempDir()
			obs := &commitLog{}
			w := newWorld(t, base, true, WithCommitObserver(obs))
			for _, o := range owners {
				w.open(o)
				if err := w.fbs[o].StageBlock(fx.chains[o][0]); err != nil {
					t.Fatal(err)
				}
				if p := w.fbs[o].PendingBlocks(); p != 1 {
					t.Fatalf("owner %v: pending = %d, want 1", o, p)
				}
			}
			if n := obs.count(); n != 0 {
				t.Fatalf("%d fsyncs before the round's Commit", n)
			}
			if err := w.log.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			for _, o := range owners {
				w.apply(fx, worldOp{kind: 0, owner: o})
			}
			obs.mu.Lock()
			windows, obsBytes := append([]int(nil), obs.windows...), obs.bytes
			obs.mu.Unlock()
			if len(windows) != 1 || windows[0] != len(owners) {
				t.Fatalf("observer saw windows=%v for one %d-block round, want one of them all", windows, len(owners))
			}
			if obsBytes == 0 {
				t.Fatal("no bytes accounted to the window")
			}
			// Nothing logged since: Commit is a no-op, not another fsync.
			if err := w.log.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := obs.count(); got != 1 {
				t.Fatalf("empty Commit fsynced (%d total)", got)
			}
			want := w.states()
			w.close()

			got := newWorld(t, base, true)
			defer got.close()
			for _, o := range owners {
				got.open(o)
			}
			sameStates(t, "reopened", got.states(), want)
		})
	}
}

// TestRecoveryGroupCommitConcurrentAlways hammers the unstaged LogBlock
// path with concurrent callers, each of which closes a window of its
// own: every caller must be acknowledged (its record fsync-covered)
// and the backend must stay recoverable.
// The callers all log the same seq-0 block, so replay idempotency
// collapses them to one stored block — WAL order is irrelevant.
func TestRecoveryGroupCommitConcurrentAlways(t *testing.T) {
	dir := t.TempDir()
	obs := &commitLog{}
	fb, _ := openBackendWith(t, dir, walOpts(), WithCommitObserver(obs))
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
	fsyncs := obs.count()
	if fsyncs < 1 || fsyncs > workers*per {
		t.Fatalf("fsyncs = %d for %d acknowledged records", fsyncs, workers*per)
	}
	t.Logf("group commit: %d records acknowledged by %d fsyncs", workers*per, fsyncs)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, walOpts())
	defer fb2.Close()
	if st2.Store.Len() != 1 {
		t.Fatalf("recovered %d blocks, want 1", st2.Store.Len())
	}
}

// TestSharedLogConcurrentLogBlock: owners of one shared log append
// their own chains at once, each block through an unstaged LogBlock
// that closes a window under the log's lock. Every append is
// acknowledged, no window is closed that no append asked for, and a
// crash right after recovers every owner's whole chain.
func TestSharedLogConcurrentLogBlock(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3, 4}
	const per = 8
	fx := newWorldFixture(t, owners, per)
	base := t.TempDir()
	obs := &commitLog{}
	w := newWorld(t, base, true, WithCommitObserver(obs))
	defer func() { w.close() }()
	for _, o := range owners {
		w.open(o)
	}
	errs := make(chan error, len(owners)*per)
	var wg sync.WaitGroup
	for _, o := range owners {
		st := w.sts[o]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range fx.chains[o] {
				errs <- st.Store.Append(b)
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
	if n := obs.count(); n < 1 || n > len(owners)*per {
		t.Fatalf("%d fsyncs for %d acknowledged blocks", n, len(owners)*per)
	}
	want := w.states()
	w.reopen() // crash: nothing closed
	for _, o := range owners {
		w.open(o)
		if n := w.sts[o].Store.Len(); n != per {
			t.Fatalf("owner %v recovered %d blocks, want %d", o, n, per)
		}
	}
	sameStates(t, "recovered", w.states(), want)
}

// TestRecoveryUnackedDiscardAfterCrash is the crash proof of a commit
// window cut before its Commit. Owners 1-3 of a shared log stage a
// round and commit it (3 blocks acknowledged); owners 4 and 5 stage the
// next round, which is written (Flush) but never fsynced. A SIGKILL
// cannot evict the page cache, so the on-disk image a test reads back
// always contains the unacknowledged records; the power-loss outcome is
// emulated by copying the WAL and cutting it inside the open window
// (anywhere past the last fsync acknowledgement is fair game for real
// loss). The log must cut the tear off as it opens, and every owner
// must recover every acknowledged block and a state byte-identical to
// an uninterrupted run over the surviving prefix.
func TestRecoveryUnackedDiscardAfterCrash(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3, 4, 5}
	fx := newWorldFixture(t, owners, 1)
	base := t.TempDir()
	w := newWorld(t, base, true)
	for _, o := range owners {
		w.open(o)
	}
	stage := func(round []identity.NodeID) {
		for _, o := range round {
			if err := w.fbs[o].StageBlock(fx.chains[o][0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	stage(owners[:3])
	if err := w.log.Commit(); err != nil { // acknowledgement point: 3 blocks durable
		t.Fatal(err)
	}
	for _, o := range owners[:3] {
		w.apply(fx, worldOp{kind: 0, owner: o})
	}
	stage(owners[3:]) // staged, written, never acknowledged
	if err := w.log.Flush(); err != nil {
		t.Fatal(err)
	}
	w.log.mu.Lock()
	synced, good := w.log.syncedOff, w.log.goodOff
	w.log.mu.Unlock()
	recLen := int64(len(appendWALRecord(nil, walKindBlock, block.Encode(fx.chains[5][0]))))
	if synced != 3*recLen || good != 5*recLen {
		t.Fatalf("offsets synced=%d good=%d, want %d and %d", synced, good, 3*recLen, 5*recLen)
	}
	raw, err := os.ReadFile(filepath.Join(base, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != good {
		t.Fatalf("wal.log holds %d bytes, staged %d", len(raw), good)
	}
	w.close()

	// Oracle state: an uninterrupted owner that sealed its block, or not.
	oracle := func(o identity.NodeID, blocks int) []byte {
		st := NewNodeState(o, worldTrustCap)
		for _, b := range fx.chains[o][:blocks] {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		return stateBytes(t, st)
	}

	for _, tc := range []struct {
		name       string
		cut        int64
		wantBlocks int // the first wantBlocks owners hold their block
		tornBytes  int64
	}{
		// Mid-record cuts discard the tear; the acknowledged prefix is
		// the floor, intact unacknowledged records above it may survive.
		{"ack-boundary", synced, 3, 0},
		{"mid-first-unacked", synced + 1, 3, 1},
		{"record-boundary", synced + recLen, 4, 0},
		{"mid-last-record", good - 1, 4, recLen - 1},
		{"window-boundary", good, 5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, walFileName), raw[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			got := newWorld(t, cdir, true)
			defer got.close()
			info, err := os.Stat(filepath.Join(cdir, walFileName))
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != tc.cut-tc.tornBytes {
				t.Fatalf("the log opened to %d bytes, want the %d-byte intact prefix", info.Size(), tc.cut-tc.tornBytes)
			}
			for i, o := range owners {
				got.open(o)
				want := 0
				if i < tc.wantBlocks {
					want = 1
				}
				if n := got.sts[o].Store.Len(); n != want {
					t.Fatalf("owner %v recovered %d blocks, want %d", o, n, want)
				}
				if rep := got.fbs[o].RecoveryReport(); rep.WALBlocks != want || rep.TornTail != (tc.tornBytes > 0) || int64(rep.TornBytes) != tc.tornBytes {
					t.Fatalf("owner %v: report WALBlocks = %d torn = %v over %d bytes, want %d and the %d bytes the log cut off",
						o, rep.WALBlocks, rep.TornTail, rep.TornBytes, want, tc.tornBytes)
				}
				if !bytes.Equal(stateBytes(t, got.sts[o]), oracle(o, want)) {
					t.Fatalf("owner %v: recovered state differs from an uninterrupted run over the same prefix", o)
				}
			}
		})
	}
}

// TestWALWritesPerWindow pins the write(2) count of the log: records
// are framed into one buffer and written when something needs them in
// the kernel — a window close, Flush, a full buffer — not one write per
// record.
func TestWALWritesPerWindow(t *testing.T) {
	p := testParams()
	t.Run("staged round", func(t *testing.T) {
		// 32 devices of one process, or a single one: each takes in 8
		// announcements, then seals and stages. One Commit closes the
		// round.
		const digests = 8
		for _, tc := range []struct {
			name   string
			owners int
		}{{"", 32}, {"one owner, ", 1}} {
			owners := tc.owners
			for _, body := range []int{1 << 10, 2 << 10} {
				t.Run(fmt.Sprintf("%sbody=%d", tc.name, body), func(t *testing.T) {
					c := newByteCounter()
					base := t.TempDir()
					l, err := OpenLog(base, WithWALFile(c.wrap))
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
			{"Commit", func(fb *FileBackend) error { return fb.log.Commit() }, 1},
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
				logged += walHeaderLen + walOwnerLen + 4 + digest.Size + walCRCLen
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

	t.Run("unstaged LogBlock", func(t *testing.T) {
		c := newByteCounter()
		dir := t.TempDir()
		obs := &commitLog{}
		fb, st := openBackendWith(t, dir, walOpts(), WithWALFile(c.wrap), WithCommitObserver(obs))
		defer fb.Close()
		st.Cache.Update(7, digest.Sum([]byte("before the block")))
		if err := st.Store.Append(chainFor(t, identity.Deterministic(1, 1), 1, nil)[0]); err != nil {
			t.Fatal(err)
		}
		if writes, syncs := c.calls(walFileName); writes != 1 || syncs != 1 {
			t.Fatalf("an unstaged LogBlock took %d writes and %d fsyncs, want 1 and 1", writes, syncs)
		}
		if n := obs.count(); n != 1 {
			t.Fatalf("%d windows closed, want the block's own", n)
		}
		// Durable when it returns: the block and the digest before it.
		fb2, st2 := openBackend(t, copyDir(t, dir), walOpts())
		defer fb2.Close()
		if !bytes.Equal(stateBytes(t, st2), stateBytes(t, st)) {
			t.Fatal("the acknowledged block does not recover")
		}
	})

	t.Run("unstaged LogBlock, shared log", func(t *testing.T) {
		// Another owner's lazy record rides in the window the block
		// closes: one write and one fsync carry both.
		owners := []identity.NodeID{1, 2}
		fx := newWorldFixture(t, owners, 1)
		c := newByteCounter()
		base := t.TempDir()
		obs := &commitLog{}
		w := newWorld(t, base, true, WithWALFile(c.wrap), WithCommitObserver(obs))
		defer w.close()
		for _, o := range owners {
			w.open(o)
		}
		c.calls(walFileName)
		w.apply(fx, worldOp{kind: 2, owner: 2, arg: 1})
		w.apply(fx, worldOp{kind: 0, owner: 1})
		if writes, syncs := c.calls(walFileName); writes != 1 || syncs != 1 {
			t.Fatalf("an unstaged LogBlock took %d writes and %d fsyncs, want 1 and 1", writes, syncs)
		}
		if n := obs.count(); n != 1 {
			t.Fatalf("%d windows closed, want the block's own", n)
		}
		sameStates(t, "after the acknowledged block", recoverImage(t, dirImage(t, base), true, owners), w.states())
	})
}

// copyDir copies a one-device data dir, as a process kill leaves it,
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
// — Flush vouches for a process kill; LogBlock, Commit and a compaction
// for a power loss too. So every block a LogBlock or Commit
// acknowledged is in the image it was acknowledged for.
func TestWALCrashImages(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3, 4}
	fx := newWorldFixture(t, owners, 80)
	var tracker syncTracker
	base := t.TempDir()
	w := newWorld(t, base, true, tracker.option())
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
			vouched(true)
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
}
