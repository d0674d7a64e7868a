package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Storage faults below the log, through its write/sync seam (WALFile
// and the rename hook): a write that fails or comes up short halfway
// through a frame, an fsync that fails, a truncation that fails, a
// rotation whose rename fails. After each, what was acknowledged must
// be recoverable and what was not must be gone, whichever owner of a
// shared log the fault hit and whichever writes next.

var errInjected = errors.New("injected storage fault")

// walFaults arms faults: each counter fails that many of the next
// calls of its kind.
type walFaults struct {
	mu                                sync.Mutex
	writes, syncs, truncates, renames int
	short                             bool // a failing write reports a short count and no error
	onRename                          func(oldpath, newpath string)
}

func (f *walFaults) take(n *int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *n == 0 {
		return false
	}
	*n--
	return true
}

func (f *walFaults) arm(set func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	set()
}

type faultyFile struct {
	WALFile
	f *walFaults
}

// Write, when armed, puts half of the frame on disk before it fails.
func (ff faultyFile) Write(p []byte) (int, error) {
	if !ff.f.take(&ff.f.writes) {
		return ff.WALFile.Write(p)
	}
	n, _ := ff.WALFile.Write(p[:len(p)/2])
	if ff.f.short {
		return n, nil
	}
	return n, errInjected
}

func (ff faultyFile) Sync() error {
	if ff.f.take(&ff.f.syncs) {
		return errInjected
	}
	return ff.WALFile.Sync()
}

func (ff faultyFile) Truncate(size int64) error {
	if ff.f.take(&ff.f.truncates) {
		return errInjected
	}
	return ff.WALFile.Truncate(size)
}

// options puts the faults under a log.
func (f *walFaults) options() []BackendOption {
	return []BackendOption{
		WithWALFile(func(w WALFile) WALFile { return faultyFile{w, f} }),
		func(l *Log) {
			l.rename = func(oldpath, newpath string) error {
				if f.take(&f.renames) {
					return errInjected
				}
				if err := os.Rename(oldpath, newpath); err != nil {
					return err
				}
				if f.onRename != nil {
					f.onRename(oldpath, newpath)
				}
				return nil
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

// TestWALFaultWriteRepairAcrossOwners: owner 1's block record stops
// halfway through its frame — with an error, or as a short write that
// reports none. The next record is owner 2's. It must not land behind
// the half frame: the log repairs first, also when the first attempt
// at the repair fails too, so everything acknowledged is found again.
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

			faults.arm(func() { faults.writes, faults.short, faults.truncates = 1, tc.short, tc.truncates })
			st1 := w.sts[1]
			if err := st1.Store.Append(fx.chains[1][1]); err == nil {
				t.Fatal("a block whose record stopped halfway was accepted")
			}
			if st1.Store.Len() != 1 || w.fbs[1].PendingBlocks() != 1 {
				t.Fatalf("the failed block counts: store %d, pending %d", st1.Store.Len(), w.fbs[1].PendingBlocks())
			}
			if tc.truncates > 0 {
				// The repair fails once: owner 2's record must fail with
				// it rather than be written behind the half frame.
				if err := w.fbs[2].LogDigest(9, digest.Sum([]byte("lost"))); err == nil {
					t.Fatal("a record was written while the log could not be repaired")
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

// TestWALFaultSyncFailure: the fsync of a commit window fails. Nothing
// of the window was acknowledged, so nothing of it may be appended,
// counted as pending or found by a recovery, whoever staged it — and
// the next window, whoever stages first, goes through.
func TestWALFaultSyncFailure(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways(), SyncBatch()} {
		t.Run("staged round/"+policy.String(), func(t *testing.T) {
			faults := &walFaults{}
			fx := newWorldFixture(t, []identity.NodeID{1, 2, 3}, 6)
			base := t.TempDir()
			w := newWorld(t, base, true, append(faults.options(), WithSyncPolicy(policy))...)
			owners := []identity.NodeID{1, 2, 3}
			for _, o := range owners {
				w.open(o)
			}
			round := func(wantErr bool) {
				t.Helper()
				for _, o := range owners {
					if err := w.fbs[o].StageBlock(fx.chains[o][w.sts[o].Store.Len()]); err != nil {
						t.Fatal(err)
					}
					if w.sts[o].Store.Len() != w.fbs[o].PendingBlocks()-1 {
						t.Fatalf("owner %v: a staged block is pending, and not yet in the store", o)
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
			fsyncs := w.log.WALStats().Fsyncs
			faults.arm(func() { faults.syncs = 1 })
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
			if got := w.log.WALStats().Fsyncs - fsyncs; got != 2 {
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
					faults.onRename = nil
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
			// The second failure is in the snapshot step: the tmp file
			// cannot be created.
			blocked := filepath.Join(w.dir(owners[len(owners)-1]), snapshotTmpName)
			if err := os.Mkdir(blocked, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := w.compact(); err == nil {
				t.Fatal("a compaction whose snapshot cannot be written reported success")
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
				t.Fatalf("the compaction that retries the snapshots: %v", err)
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
