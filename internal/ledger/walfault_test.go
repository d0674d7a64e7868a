package ledger

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Storage faults below the log, through its write/sync seam (WALFile,
// the rename hook and the checkpoint's directory fsync) — which every
// file the log and its backends write goes through: WAL generations,
// segments, checkpoints. A write that fails or comes up short halfway
// through a frame, an fsync that fails, a truncation that fails, a
// rename that fails, a directory fsync that fails. After each, what
// was acknowledged must be recoverable and what was not must be gone,
// whichever owner of a shared log the fault hit and whichever writes
// next.

var errInjected = errors.New("injected storage fault")

// walFaults arms faults: each counter fails that many of the next
// calls of its kind, on any file or only on the one named.
type walFaults struct {
	mu                                          sync.Mutex
	writes, syncs, truncates, renames, dirSyncs int
	dirSyncsPass                                int    // directory fsyncs that go through before the armed ones fail
	short                                       bool   // a failing write reports a short count and no error
	err                                         error  // what a failing call returns (errInjected when nil)
	only                                        string // when set, the path of the one file that fails (of a rename: the old path; of a dir fsync: the dir)
	onRename                                    func(oldpath, newpath string)
	windows                                     commitLog // the windows the log closed
}

// take reports whether the call of kind n on the file at path fails,
// and with which error.
func (f *walFaults) take(n *int, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *n == 0 || (f.only != "" && path != f.only) {
		return nil
	}
	*n--
	if f.err != nil {
		return f.err
	}
	return errInjected
}

func (f *walFaults) arm(set func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	set()
}

type faultyFile struct {
	WALFile
	f    *walFaults
	path string
}

// Write, when armed, puts half of the frame on disk before it fails.
func (ff faultyFile) Write(p []byte) (int, error) {
	err := ff.f.take(&ff.f.writes, ff.path)
	if err == nil {
		return ff.WALFile.Write(p)
	}
	n, _ := ff.WALFile.Write(p[:len(p)/2])
	ff.f.mu.Lock()
	short := ff.f.short
	ff.f.mu.Unlock()
	if short {
		return n, nil
	}
	return n, err
}

func (ff faultyFile) Sync() error {
	if err := ff.f.take(&ff.f.syncs, ff.path); err != nil {
		return err
	}
	return ff.WALFile.Sync()
}

func (ff faultyFile) Truncate(size int64) error {
	if err := ff.f.take(&ff.f.truncates, ff.path); err != nil {
		return err
	}
	return ff.WALFile.Truncate(size)
}

// options puts the faults under a log, and counts its windows.
func (f *walFaults) options() []BackendOption {
	return []BackendOption{
		WithCommitObserver(&f.windows),
		WithWALFile(func(w WALFile) WALFile {
			path := ""
			if of, ok := w.(*os.File); ok {
				path = of.Name()
			}
			return faultyFile{w, f, path}
		}),
		func(l *Log) {
			l.rename = func(oldpath, newpath string) error {
				if err := f.take(&f.renames, oldpath); err != nil {
					return err
				}
				if err := os.Rename(oldpath, newpath); err != nil {
					return err
				}
				f.mu.Lock()
				hook := f.onRename
				f.mu.Unlock()
				if hook != nil {
					hook(oldpath, newpath)
				}
				return nil
			}
			l.syncDir = func(dir string) error {
				f.mu.Lock()
				pass := f.dirSyncsPass > 0 && (f.only == "" || dir == f.only)
				if pass {
					f.dirSyncsPass--
				}
				f.mu.Unlock()
				if pass {
					return syncDir(dir)
				}
				if err := f.take(&f.dirSyncs, dir); err != nil {
					return err
				}
				return syncDir(dir)
			}
		},
	}
}

// strictLog fails unless dir's wal.log is a run of intact records.
func strictLog(t *testing.T, dir string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(buf); {
		_, n, err := scanWALRecord(buf[off:])
		if err != nil {
			t.Fatalf("wal.log is damaged at offset %d of %d: %v", off, len(buf), err)
		}
		off += n
	}
}

// TestWALFaultWriteRepairAcrossOwners: the write carrying owner 1's
// block record stops halfway through — with an error, or as a short
// write that reports none. Owner 2's digest record, buffered ahead of
// it, is not lost with it, and the next records are owner 2's. None may
// land behind the half frame: the log repairs first. When the first
// attempt at the repair fails too, the lazy record buffered meanwhile
// is lost and Sync says so, and everything acknowledged is found again.
func TestWALFaultWriteRepairAcrossOwners(t *testing.T) {
	for _, tc := range []struct {
		name      string
		short     bool
		truncates int
	}{
		{name: "failed write"},
		{name: "short write", short: true},
		{name: "failed write, then a failed repair", truncates: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := &walFaults{}
			fx := newWorldFixture(t, []identity.NodeID{1, 2}, 6)
			base := t.TempDir()
			w := newWorld(t, base, true, faults.options()...)
			w.open(1)
			w.open(2)
			for _, o := range []identity.NodeID{1, 2} {
				w.apply(fx, worldOp{kind: 0, owner: o})
				w.apply(fx, worldOp{kind: 2, owner: o, arg: 1})
			}

			if tc.truncates > 0 {
				// A failed repair loses whatever is buffered: let that be
				// only the record this case logs for it.
				if err := w.log.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			faults.arm(func() { faults.writes, faults.short, faults.truncates = 1, tc.short, tc.truncates })
			st1 := w.sts[1]
			if err := st1.Store.Append(fx.chains[1][1]); err == nil {
				t.Fatal("a block whose record stopped halfway was accepted")
			}
			if st1.Store.Len() != 1 || w.fbs[1].PendingBlocks() != 1 {
				t.Fatalf("the failed block counts: store %d, pending %d", st1.Store.Len(), w.fbs[1].PendingBlocks())
			}
			if tc.truncates > 0 {
				// The repair fails once: owner 2's record is lost rather
				// than written behind the half frame (the recovered state
				// below would hold it), and Sync reports the loss.
				if err := w.fbs[2].LogDigest(9, digest.Sum([]byte("lost"))); err != nil {
					t.Fatal(err)
				}
				if err := w.log.Sync(); !errors.Is(err, errInjected) {
					t.Fatalf("Sync did not report the lazy record's failure: %v", err)
				}
			}
			// Owner 2 is the next writer, then owner 1 tries again.
			w.apply(fx, worldOp{kind: 2, owner: 2, arg: 7})
			w.apply(fx, worldOp{kind: 0, owner: 2})
			w.apply(fx, worldOp{kind: 0, owner: 1})
			if err := w.log.Sync(); err != nil {
				t.Fatal(err)
			}
			strictLog(t, base)
			want := w.states()
			w.reopen() // crash
			w.open(1)
			w.open(2)
			sameStates(t, "recovered", w.states(), want)
			w.close()
		})
	}
}

// TestWALFaultSyncFailure: the fsync of a commit window fails — or,
// before the window closes, a write that carries part of it does (a
// Flush, as a node makes before acking a digest, or a full buffer).
// Nothing of the window was acknowledged, so nothing of it may be
// appended, counted as pending or found by a recovery, whoever staged
// it and whether before or after the failed write — and the next
// window, whoever stages first, goes through.
func TestWALFaultSyncFailure(t *testing.T) {
	for _, midRound := range []bool{false, true} {
		name := "staged round"
		if midRound {
			name = "staged round, failed write mid-round"
		}
		t.Run(name, func(t *testing.T) {
			faults := &walFaults{}
			fx := newWorldFixture(t, []identity.NodeID{1, 2, 3}, 6)
			base := t.TempDir()
			w := newWorld(t, base, true, faults.options()...)
			owners := []identity.NodeID{1, 2, 3}
			for _, o := range owners {
				w.open(o)
			}
			round := func(wantErr bool) {
				t.Helper()
				for i, o := range owners {
					if err := w.fbs[o].StageBlock(fx.chains[o][w.sts[o].Store.Len()]); err != nil {
						t.Fatal(err)
					}
					if w.sts[o].Store.Len() != w.fbs[o].PendingBlocks()-1 {
						t.Fatalf("owner %v: a staged block is pending, and not yet in the store", o)
					}
					if wantErr && midRound && i == 0 {
						if err := w.log.Flush(); !errors.Is(err, errInjected) {
							t.Fatalf("Flush over a failed write: %v", err)
						}
					}
				}
				err := w.log.Commit()
				if wantErr != (err != nil) {
					t.Fatalf("Commit: %v, want an error: %v", err, wantErr)
				}
				if err != nil {
					return
				}
				for _, o := range owners {
					w.apply(fx, worldOp{kind: 0, owner: o})
				}
			}
			round(false)
			fsyncs := faults.windows.count()
			if midRound {
				faults.arm(func() { faults.writes = 1 })
			} else {
				faults.arm(func() { faults.syncs = 1 })
			}
			round(true)
			for _, o := range owners {
				if p := w.fbs[o].PendingBlocks(); p != 1 {
					t.Errorf("owner %v: %d pending blocks after a failed window, want the 1 of the window before", o, p)
				}
			}
			// A block of the failed window appended after all is written
			// again: its staged record went with the window.
			w.apply(fx, worldOp{kind: 0, owner: 2})
			if err := w.log.Commit(); err != nil {
				t.Fatal(err)
			}
			// The other way round this time: the owner that staged last
			// writes first behind the poisoned region.
			owners[0], owners[2] = owners[2], owners[0]
			round(false)
			if got := faults.windows.count() - fsyncs; got != 2 {
				t.Fatalf("%d windows acknowledged since the first, want 2: the failed one does not count", got)
			}
			strictLog(t, base)
			want := w.states()
			w.reopen() // crash
			for _, o := range owners {
				w.open(o)
			}
			sameStates(t, "recovered", w.states(), want)
			if a, b := w.sts[1].Store.Len(), w.sts[2].Store.Len(); a != 2 || b != 3 {
				t.Fatalf("recovered %d and %d blocks, want the 2 and 3 acknowledged ones", a, b)
			}
			w.close()
		})
	}
	// One device's seal on a log of its own: a window of one staged
	// block, whose write or fsync fails.
	for _, fault := range []string{"fsync", "write"} {
		t.Run("staged block, failed "+fault, func(t *testing.T) {
			faults := &walFaults{}
			dir := t.TempDir()
			fb, st := openBackendWith(t, dir, walOpts(), faults.options()...)
			defer fb.Close()
			blocks := chainFor(t, identity.Deterministic(1, 1), 3, nil)
			seal := func(b *block.Block) error {
				if err := fb.StageBlock(b); err != nil {
					return err
				}
				if err := fb.log.Commit(); err != nil {
					return err
				}
				return st.Store.Append(b)
			}
			if err := seal(blocks[0]); err != nil {
				t.Fatal(err)
			}
			fsyncs := faults.windows.count()
			faults.arm(func() {
				if fault == "fsync" {
					faults.syncs = 1
				} else {
					faults.writes = 1
				}
			})
			if err := seal(blocks[1]); !errors.Is(err, errInjected) {
				t.Fatalf("a window over a failed %s: %v", fault, err)
			}
			if st.Store.Len() != 1 || fb.PendingBlocks() != 1 {
				t.Fatalf("memory ahead of disk: store %d, pending %d", st.Store.Len(), fb.PendingBlocks())
			}
			// The same block, staged again, goes through.
			for _, b := range blocks[1:] {
				if err := seal(b); err != nil {
					t.Fatal(err)
				}
			}
			if got := faults.windows.count() - fsyncs; got != 2 {
				t.Fatalf("%d windows acknowledged since the first, want 2: the failed one does not count", got)
			}
			strictLog(t, dir)
			want := stateBytes(t, st)
			fb2, st2 := openBackend(t, copyDir(t, dir), walOpts()) // crash, reopen
			defer fb2.Close()
			if !bytes.Equal(stateBytes(t, st2), want) {
				t.Fatal("recovered state differs")
			}
		})
	}
	t.Run("blocking append", func(t *testing.T) {
		faults := &walFaults{}
		dir := t.TempDir()
		fb, st := openBackendWith(t, dir, walOpts(), faults.options()...)
		blocks := chainFor(t, identity.Deterministic(1, 1), 3, nil)
		if err := st.Store.Append(blocks[0]); err != nil {
			t.Fatal(err)
		}
		faults.arm(func() { faults.syncs = 1 })
		if err := st.Store.Append(blocks[1]); !errors.Is(err, errInjected) {
			t.Fatalf("append over a failed fsync: %v", err)
		}
		if st.Store.Len() != 1 || fb.PendingBlocks() != 1 {
			t.Fatalf("memory ahead of disk: store %d, pending %d", st.Store.Len(), fb.PendingBlocks())
		}
		for _, b := range blocks[1:] {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		strictLog(t, dir)
		want := stateBytes(t, st)
		_, st2 := openBackend(t, dir, walOpts()) // crash, reopen
		if !bytes.Equal(stateBytes(t, st2), want) {
			t.Fatal("recovered state differs")
		}
	})
}

// TestWALFaultRotation: a rotation that cannot rename changes nothing —
// the log keeps appending to the generation it has, the compaction
// reports the failure now and again at Sync, and the next one goes
// through. And when the rename went through but the new generation
// cannot be opened, the log stops taking records rather than write them
// to a file the next compaction deletes.
func TestWALFaultRotation(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := map[bool]string{false: "single owner", true: "shared"}[shared]
		t.Run(name, func(t *testing.T) {
			faults := &walFaults{}
			fx := newWorldFixture(t, []identity.NodeID{1, 2}, 8)
			base := t.TempDir()
			w := newWorld(t, base, shared, faults.options()...)
			w.open(1)
			if shared {
				w.open(2)
			}
			drive := func() {
				for o := range w.sts {
					w.apply(fx, worldOp{kind: 0, owner: o})
					w.apply(fx, worldOp{kind: 2, owner: o, arg: 3})
				}
			}
			logDir := base
			if !shared {
				logDir = w.dir(1)
			}
			drive()
			faults.arm(func() { faults.renames = 1 })
			if err := w.compact(); !errors.Is(err, errInjected) {
				t.Fatalf("compaction over a failed rename: %v", err)
			}
			if err := w.fbs[1].Sync(); !errors.Is(err, errInjected) {
				t.Fatalf("Sync did not report the failed compaction: %v", err)
			}
			if _, err := os.Stat(filepath.Join(logDir, walOldFileName)); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("a failed rename left a wal.old")
			}
			drive()
			if p := w.fbs[1].PendingBlocks(); p != 2 {
				t.Fatalf("%d pending blocks, want 2: the generation never rotated", p)
			}
			if err := w.compact(); err != nil {
				t.Fatalf("the compaction after the failed one: %v", err)
			}
			if p := w.fbs[1].PendingBlocks(); p != 0 {
				t.Fatalf("%d pending blocks after a compaction", p)
			}
			drive()

			// The rename goes through, but something sits where the new
			// generation should be created.
			faults.arm(func() {
				faults.onRename = func(oldpath, newpath string) {
					faults.arm(func() { faults.onRename = nil })
					if err := os.WriteFile(oldpath, nil, 0o644); err != nil {
						t.Error(err)
					}
				}
			})
			if err := w.compact(); err == nil {
				t.Fatal("compaction succeeded without a new generation")
			}
			want := w.states()
			st := w.sts[1]
			if err := st.Store.Append(fx.chains[1][st.Store.Len()]); err == nil || !strings.Contains(err.Error(), "opening new WAL generation") {
				t.Fatalf("a record was taken by a log without a current generation: %v", err)
			}
			w.reopen() // crash
			w.open(1)
			if shared {
				w.open(2)
			}
			sameStates(t, "recovered", w.states(), want)
			w.close()
		})
	}
}

// TestWALFaultRotationDirSync: the data dir's fsync after a rotation —
// what makes the rename to wal.old and the new wal.log survive a power
// loss — goes through the seam, made by the first window close after
// the rotation. When it fails, that window fails: none of its blocks is
// acknowledged, pending or found by a recovery. The next close retries
// the fsync and acknowledges its window, and once one fsync succeeded
// no later close makes another. The fsync after wal.old's removal is
// best-effort: when it fails, the compaction succeeds all the same and
// nothing else changes.
func TestWALFaultRotationDirSync(t *testing.T) {
	for _, shared := range []bool{false, true} {
		owners := []identity.NodeID{1}
		if shared {
			owners = []identity.NodeID{1, 2, 3}
		}
		setup := func(t *testing.T) (*walFaults, *worldFixture, *world, string) {
			faults := &walFaults{}
			fx := newWorldFixture(t, owners, 10)
			base := t.TempDir()
			w := newWorld(t, base, shared, faults.options()...)
			t.Cleanup(func() { w.close() })
			for _, o := range owners {
				w.open(o)
				w.apply(fx, worldOp{kind: 0, owner: o})
				w.apply(fx, worldOp{kind: 2, owner: o, arg: 1})
			}
			logDir := base
			if !shared {
				logDir = w.dir(1)
			}
			return faults, fx, w, logDir
		}
		commit := func(w *world) error {
			if shared {
				return w.log.Commit()
			}
			return w.fbs[1].log.Commit()
		}
		// round stages one block per owner and closes the window; the
		// blocks go to their stores only when it was acknowledged.
		round := func(t *testing.T, fx *worldFixture, w *world, want error) {
			t.Helper()
			for _, o := range owners {
				if err := w.fbs[o].StageBlock(fx.chains[o][w.sts[o].Store.Len()]); err != nil {
					t.Fatal(err)
				}
			}
			if err := commit(w); !errors.Is(err, want) || (want == nil && err != nil) {
				t.Fatalf("Commit: %v, want %v", err, want)
			}
			if want != nil {
				return
			}
			for _, o := range owners {
				w.apply(fx, worldOp{kind: 0, owner: o})
			}
		}
		name := map[bool]string{false: "single owner", true: "shared"}[shared]
		t.Run(name+"/rotation", func(t *testing.T) {
			faults, fx, w, logDir := setup(t)
			if err := w.compact(); err != nil {
				t.Fatal(err)
			}
			lens := map[identity.NodeID]int{}
			for _, o := range owners {
				lens[o] = w.sts[o].Store.Len()
			}
			fsyncs := faults.windows.count()
			faults.arm(func() { faults.dirSyncs, faults.only = 1, logDir })
			round(t, fx, w, errInjected)
			for _, o := range owners {
				if n, p := w.sts[o].Store.Len(), w.fbs[o].PendingBlocks(); n != lens[o] || p != 0 {
					t.Fatalf("owner %v after a window whose dir fsync failed: store %d (was %d), pending %d", o, n, lens[o], p)
				}
			}
			// The seam healed: the retry acknowledges the next window.
			round(t, fx, w, nil)
			if got := faults.windows.count() - fsyncs; got != 1 {
				t.Fatalf("%d windows acknowledged since the rotation, want 1: the failed one does not count", got)
			}
			// The rotation is durable now: no later close fsyncs the dir.
			faults.arm(func() { faults.dirSyncs = 1 })
			round(t, fx, w, nil)
			faults.arm(func() { faults.dirSyncs = 0 })
			strictLog(t, logDir)
			want := w.states()
			w.reopen() // crash
			for _, o := range owners {
				w.open(o)
			}
			sameStates(t, "recovered", w.states(), want)
			for _, o := range owners {
				if n := w.sts[o].Store.Len(); n != lens[o]+2 {
					t.Fatalf("owner %v recovered %d blocks, want the %d acknowledged", o, n, lens[o]+2)
				}
			}
		})
		t.Run(name+"/removal", func(t *testing.T) {
			faults, fx, w, logDir := setup(t)
			faults.arm(func() {
				faults.dirSyncs, faults.only = 1, logDir
				if !shared {
					faults.dirSyncsPass = 1 // the checkpoint's, in the same dir
				}
			})
			if err := w.compact(); err != nil {
				t.Fatalf("compaction over a failed dir fsync after the removal: %v", err)
			}
			faults.arm(func() {
				if faults.dirSyncs != 0 {
					t.Error("the removal's dir fsync bypassed the seam")
				}
			})
			if _, err := os.Stat(filepath.Join(logDir, walOldFileName)); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("wal.old survived the compaction that covered it")
			}
			if err := w.fbs[1].Sync(); err != nil {
				t.Fatalf("a failed best-effort fsync became a sticky error: %v", err)
			}
			round(t, fx, w, nil)
			want := w.states()
			w.reopen() // crash
			for _, o := range owners {
				w.open(o)
			}
			sameStates(t, "recovered", w.states(), want)
		})
	}
}

// TestCompactionFailureKeepsEveryGeneration is the reproduction of a
// durability bug of the per-device log: a compaction whose gather or
// snapshot step failed left wal.old holding the only copy of
// acknowledged records, and the next compaction's rotation renamed
// wal.log over it. Two failed compactions with appends between them,
// then a reopen, used to end in "replaying wal.old: malformed WAL
// record: block at offset 0 seq 3, store has 0".
func TestCompactionFailureKeepsEveryGeneration(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := map[bool]string{false: "single owner", true: "shared"}[shared]
		t.Run(name, func(t *testing.T) {
			owners := []identity.NodeID{1}
			if shared {
				owners = []identity.NodeID{1, 2, 3}
			}
			fx := newWorldFixture(t, owners, 12)
			base := t.TempDir()
			w := newWorld(t, base, shared)
			for _, o := range owners {
				w.open(o)
			}
			drive := func(n int) {
				for _, o := range owners {
					for i := 0; i < n; i++ {
						w.apply(fx, worldOp{kind: 0, owner: o})
						w.apply(fx, worldOp{kind: 1, owner: o, arg: i})
					}
				}
			}
			failing := func() error {
				gatherErr := errors.New("state not available")
				if shared {
					return w.log.Compact(func(o identity.NodeID) (*NodeState, error) {
						if o == owners[len(owners)-1] {
							return nil, gatherErr
						}
						return w.sts[o], nil
					})
				}
				return w.fbs[1].Compact(func() (*NodeState, error) { return nil, gatherErr })
			}
			drive(3)
			if err := failing(); err == nil {
				t.Fatal("a compaction whose gather fails reported success")
			}
			drive(2)
			// The second failure is in the checkpoint step: the tmp file
			// cannot be created.
			blocked := filepath.Join(w.dir(owners[len(owners)-1]), checkpointTmpName)
			if err := os.Mkdir(blocked, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := w.compact(); err == nil {
				t.Fatal("a compaction whose checkpoint cannot be written reported success")
			}
			if err := os.Remove(blocked); err != nil {
				t.Fatal(err)
			}
			if err := w.fbs[1].Sync(); err == nil {
				t.Fatal("Sync did not report the failed compactions")
			}
			if err := w.fbs[1].Sync(); err != nil {
				t.Fatalf("the sticky error is reported once: %v", err)
			}
			drive(1)
			want := w.states()

			w.reopen() // crash
			for _, o := range owners {
				w.open(o)
			}
			sameStates(t, "recovered after two failed compactions", w.states(), want)

			// Same again without the crash: the third compaction succeeds
			// and lets wal.old go.
			drive(1)
			if err := failing(); err == nil {
				t.Fatal("a compaction whose gather fails reported success")
			}
			drive(1)
			if err := w.compact(); err != nil {
				t.Fatalf("the compaction that retries the checkpoints: %v", err)
			}
			logDir := base
			if !shared {
				logDir = w.dir(1)
			}
			if _, err := os.Stat(filepath.Join(logDir, walOldFileName)); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("wal.old survived the compaction that covered it")
			}
			drive(1)
			want = w.states()
			w.reopen()
			for _, o := range owners {
				w.open(o)
			}
			sameStates(t, "recovered after the retried compaction", w.states(), want)
			w.close()
		})
	}
}

// TestCheckpointFaults: storage faults under the segment and checkpoint
// writers, hitting owner k of N in the middle of a log-wide compaction
// (or the one owner of a one-device dir): EIO, ENOSPC or a short write
// halfway through a segment append or through checkpoint.tmp, an fsync
// of either that fails, a checkpoint rename that fails, an fsync of the
// directory that rename went into that fails. The compaction
// reports it and keeps wal.old; a crash right then recovers every owner
// to the state it had; the next trigger retries and lets wal.old go;
// and whatever the failed append left past the segment's recorded
// prefix is cut before anything is appended behind it.
func TestCheckpointFaults(t *testing.T) {
	type fault struct {
		name string
		file string
		want error
		set  func(f *walFaults)
	}
	var faults []fault
	for _, file := range []string{segmentFileName, checkpointTmpName} {
		faults = append(faults,
			fault{"EIO", file, syscall.EIO, func(f *walFaults) { f.writes, f.err = 1, syscall.EIO }},
			fault{"ENOSPC", file, syscall.ENOSPC, func(f *walFaults) { f.writes, f.err = 1, syscall.ENOSPC }},
			fault{"short write", file, io.ErrShortWrite, func(f *walFaults) { f.writes, f.short = 1, true }},
			fault{"failed fsync", file, errInjected, func(f *walFaults) { f.syncs = 1 }},
		)
	}
	faults = append(faults,
		fault{"failed rename", checkpointTmpName, errInjected, func(f *walFaults) { f.renames = 1 }},
		// The rename went through, so this process reads the new
		// checkpoint; only its survival of a power loss is in doubt.
		fault{"failed dir fsync", "", errInjected, func(f *walFaults) { f.dirSyncs = 1 }},
	)
	for _, shared := range []bool{false, true} {
		owners, victim := []identity.NodeID{1}, identity.NodeID(1)
		if shared {
			owners, victim = []identity.NodeID{1, 2, 3}, 2
		}
		for _, fc := range faults {
			name := fmt.Sprintf("%s/%s/shared=%v", cmp.Or(fc.file, "dir"), fc.name, shared)
			t.Run(name, func(t *testing.T) {
				faults := &walFaults{}
				fx := newWorldFixture(t, owners, 12)
				base := t.TempDir()
				w := newWorld(t, base, shared, faults.options()...)
				defer func() { w.close() }()
				for _, o := range owners {
					w.open(o)
				}
				drive := func(n int) {
					for _, o := range owners {
						for i := 0; i < n; i++ {
							w.apply(fx, worldOp{kind: 0, owner: o})
							w.apply(fx, worldOp{kind: 1, owner: o, arg: i})
							w.apply(fx, worldOp{kind: 2, owner: o, arg: i})
						}
					}
				}
				logDir := base
				if !shared {
					logDir = w.dir(1)
				}
				drive(3)
				if err := w.compact(); err != nil {
					t.Fatal(err)
				}
				drive(2)
				want := w.states()
				faults.arm(func() {
					fc.set(faults)
					faults.only = filepath.Join(w.dir(victim), fc.file)
				})
				if err := w.compact(); !errors.Is(err, fc.want) {
					t.Fatalf("compaction over the fault: %v, want %v", err, fc.want)
				}
				if _, err := os.Stat(filepath.Join(logDir, walOldFileName)); err != nil {
					t.Fatalf("wal.old went with a compaction that failed: %v", err)
				}
				sameStates(t, "crash after the failed compaction", recoverImage(t, dirImage(t, base), shared, owners), want)

				// The next trigger retries, and appends behind the committed
				// prefix only.
				drive(1)
				want = w.states()
				if err := w.compact(); err != nil {
					t.Fatalf("the compaction after the failed one: %v", err)
				}
				if _, err := os.Stat(filepath.Join(logDir, walOldFileName)); !errors.Is(err, os.ErrNotExist) {
					t.Fatal("wal.old survived the compaction that covered it")
				}
				for _, o := range owners {
					strictSegment(t, w.dir(o))
				}
				sameStates(t, "crash after the retry", recoverImage(t, dirImage(t, base), shared, owners), want)
			})
		}
	}
}

// TestCleanCompactTouchesNothing: a backend that logged nothing since
// its checkpoint has nothing to commit, so its Compact opens, renames
// and fsyncs nothing. Here every one of those fails, and the Compact
// still returns nil with the data dir as it was; once the owner logs
// again, the same seams fail its Compact. A whole-log compaction still
// rotates, and commits the checkpoints of the owners that logged only.
func TestCleanCompactTouchesNothing(t *testing.T) {
	var armed atomic.Bool
	var mu sync.Mutex
	opened := map[string]int{}
	seams := []BackendOption{
		WithWALFile(func(f WALFile) WALFile {
			mu.Lock()
			opened[filepath.Base(f.(*os.File).Name())]++
			mu.Unlock()
			if armed.Load() {
				return failingFile{f}
			}
			return f
		}),
		func(l *Log) {
			l.rename = func(oldpath, newpath string) error {
				if armed.Load() {
					return errInjected
				}
				return os.Rename(oldpath, newpath)
			}
			l.syncDir = func(dir string) error {
				if armed.Load() {
					return errInjected
				}
				return syncDir(dir)
			}
		},
	}
	takeOpened := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := opened
		opened = map[string]int{}
		return out
	}
	owners := []identity.NodeID{1, 2}
	fx := newWorldFixture(t, owners, 4)
	base := t.TempDir()
	w := newWorld(t, base, true, seams...)
	defer func() { w.close() }()
	for _, o := range owners {
		w.open(o)
		w.apply(fx, worldOp{kind: 0, owner: o})
		w.apply(fx, worldOp{kind: 2, owner: o, arg: 1})
	}
	if err := w.compact(); err != nil {
		t.Fatal(err)
	}

	// Owner 1 logs, owner 2 does not: the rotation opens a new wal.log,
	// and one checkpoint is written.
	w.apply(fx, worldOp{kind: 0, owner: 1})
	takeOpened()
	if err := w.compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := takeOpened(), map[string]int{walFileName: 1, segmentFileName: 1, checkpointTmpName: 1}; !maps.Equal(got, want) {
		t.Fatalf("a compaction with one owner dirty opened %v, want %v", got, want)
	}

	armed.Store(true)
	before := dirImage(t, base)
	for _, o := range owners {
		st := w.sts[o]
		if err := w.fbs[o].Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			t.Fatalf("owner %v, clean: %v", o, err)
		}
	}
	if got := takeOpened(); len(got) != 0 {
		t.Fatalf("clean compactions opened %v", got)
	}
	if err := w.log.Sync(); err != nil {
		t.Fatalf("clean compactions left an error behind: %v", err)
	}
	if after := dirImage(t, base); !maps.EqualFunc(after, before, bytes.Equal) {
		t.Fatal("clean compactions changed the data dir")
	}
	w.apply(fx, worldOp{kind: 2, owner: 1, arg: 2})
	st := w.sts[1]
	if err := w.fbs[1].Compact(func() (*NodeState, error) { return st, nil }); !errors.Is(err, errInjected) {
		t.Fatalf("the compaction of an owner that logged since: %v, want %v", err, errInjected)
	}
	armed.Store(false)
}

// failingFile fails every write, fsync and truncation.
type failingFile struct{ WALFile }

func (failingFile) Write([]byte) (int, error) { return 0, errInjected }
func (failingFile) Sync() error               { return errInjected }
func (failingFile) Truncate(int64) error      { return errInjected }

// dirImage reads every regular file under base, by relative path: a
// data dir as a crash at this instant would leave it.
func dirImage(t testing.TB, base string) map[string][]byte {
	t.Helper()
	img, err := readTree(base)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func readTree(base string) (map[string][]byte, error) {
	img := map[string][]byte{}
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(base, path)
		img[rel] = data
		return err
	})
	return img, err
}

// recoverImage lays img out in a fresh dir and recovers every owner from
// it, returning their states.
func recoverImage(t *testing.T, img map[string][]byte, shared bool, owners []identity.NodeID) map[identity.NodeID][]byte {
	t.Helper()
	dir := writeImage(t, img)
	w := newWorld(t, dir, shared)
	defer w.close()
	for _, o := range owners {
		w.open(o)
	}
	return w.states()
}

// writeImage lays img out in a fresh dir.
func writeImage(t *testing.T, img map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for rel, data := range img {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
