package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// The shared log against the layout it replaced. Until the log became a
// property of the data dir, a process hosting N devices kept N one-device
// dirs, one per base/node-<id>, each with a log of its own. OpenFileBackend
// still opens such a dir, so that layout serves here as the reference:
// one seeded workload goes through both, and whatever either recovers,
// the other must recover byte for byte.

// world keeps a set of owners durable under base, one way or the other.
type world struct {
	t      *testing.T
	base   string
	shared bool
	bopts  []BackendOption
	stage  bool // blocks go in as a driver seals them: staged, committed, appended
	log    *Log // shared only
	fbs    map[identity.NodeID]*FileBackend
	sts    map[identity.NodeID]*NodeState
}

const worldTrustCap = 2 // small, so FIFO evictions happen and replay

func newWorld(t *testing.T, base string, shared bool, bopts ...BackendOption) *world {
	t.Helper()
	w := &world{t: t, base: base, shared: shared, bopts: bopts}
	w.reopen()
	return w
}

// reopen starts over from what base holds, with no owner open.
func (w *world) reopen() {
	w.t.Helper()
	w.fbs = map[identity.NodeID]*FileBackend{}
	w.sts = map[identity.NodeID]*NodeState{}
	if w.shared {
		l, err := OpenLog(w.base, w.bopts...)
		if err != nil {
			w.t.Fatalf("OpenLog: %v", err)
		}
		w.log = l
	}
}

func (w *world) dir(o identity.NodeID) string {
	return filepath.Join(w.base, fmt.Sprintf("node-%d", o))
}

func worldOpts(o identity.NodeID) RecoverOptions {
	return RecoverOptions{Owner: o, Params: testParams(), TrustCap: worldTrustCap}
}

// recover opens o's backend and recovers it without attaching it.
func (w *world) recover(o identity.NodeID) (*FileBackend, *NodeState, error) {
	var fb *FileBackend
	var err error
	if w.shared {
		fb, err = w.log.OpenBackend(w.dir(o))
	} else {
		fb, err = OpenFileBackend(w.dir(o), w.bopts...)
	}
	if err != nil {
		return nil, nil, err
	}
	st, err := fb.Recover(worldOpts(o))
	if err != nil {
		fb.Close()
		return nil, nil, err
	}
	return fb, st, nil
}

// open brings owner o up: recovered, journaling.
func (w *world) open(o identity.NodeID) {
	w.t.Helper()
	fb, st, err := w.recover(o)
	if err != nil {
		w.t.Fatalf("recovering owner %v (shared=%v): %v", o, w.shared, err)
	}
	st.Attach(fb)
	w.fbs[o], w.sts[o] = fb, st
}

// silence takes owner o down the way Cluster.Silence does: its whole
// state into its snapshot, then its backend closed.
func (w *world) silence(o identity.NodeID) {
	w.t.Helper()
	fb, st := w.fbs[o], w.sts[o]
	delete(w.fbs, o)
	delete(w.sts, o)
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		w.t.Fatalf("snapshotting owner %v: %v", o, err)
	}
	if err := fb.Close(); err != nil {
		w.t.Fatalf("closing owner %v: %v", o, err)
	}
}

// compact folds the journal(s) into snapshots of every open owner.
func (w *world) compact() error {
	if w.shared {
		return w.log.Compact(func(o identity.NodeID) (*NodeState, error) { return w.sts[o], nil })
	}
	var errs []error
	for o, fb := range w.fbs {
		st := w.sts[o]
		errs = append(errs, fb.Compact(func() (*NodeState, error) { return st, nil }))
	}
	return errors.Join(errs...)
}

// states serializes every open owner's state.
func (w *world) states() map[identity.NodeID][]byte {
	out := map[identity.NodeID][]byte{}
	for o, st := range w.sts {
		out[o] = stateBytes(w.t, st)
	}
	return out
}

// flush writes every record logged so far to the kernel, where a
// process kill leaves it.
func (w *world) flush() {
	w.t.Helper()
	var errs []error
	if w.shared {
		errs = append(errs, w.log.Flush())
	} else {
		for _, fb := range w.fbs {
			errs = append(errs, fb.Flush())
		}
	}
	if err := errors.Join(errs...); err != nil {
		w.t.Fatalf("flush (shared=%v): %v", w.shared, err)
	}
}

// close shuts everything down gracefully.
func (w *world) close() {
	for _, fb := range w.fbs {
		fb.Close()
	}
	if w.log != nil {
		w.log.Close()
	}
}

// worldOp is one step of the seeded workload.
type worldOp struct {
	kind  int // 0 block, 1 trust, 2 digest, 3 forget, 4 compact, 5 join
	owner identity.NodeID
	arg   int
}

// worldWorkload is a seeded interleaving of every record kind over the
// owners, with compactions on the way and a device (joiner, unless 0)
// joining halfway.
func worldWorkload(seed int64, owners []identity.NodeID, joiner identity.NodeID, steps int) []worldOp {
	rng := rand.New(rand.NewSource(seed))
	live := append([]identity.NodeID(nil), owners...)
	var ops []worldOp
	for i := 0; i < steps; i++ {
		switch {
		case i == steps/2 && joiner != 0:
			ops = append(ops, worldOp{kind: 5, owner: joiner})
			live = append(live, joiner)
			continue
		case i%37 == 36:
			ops = append(ops, worldOp{kind: 4})
			continue
		}
		o := live[rng.Intn(len(live))]
		switch p := rng.Intn(10); {
		case p < 4:
			ops = append(ops, worldOp{kind: 0, owner: o})
		case p < 6:
			ops = append(ops, worldOp{kind: 1, owner: o, arg: rng.Intn(worldForeign)})
		case p < 9:
			ops = append(ops, worldOp{kind: 2, owner: o, arg: rng.Intn(64)})
		default:
			ops = append(ops, worldOp{kind: 3, owner: o, arg: rng.Intn(4)})
		}
	}
	return ops
}

const worldForeign = 12 // headers of a stranger's chain that owners come to trust

// worldFixture holds the pre-sealed blocks the workload draws on.
type worldFixture struct {
	chains  map[identity.NodeID][]*block.Block
	foreign []*block.Block
}

func newWorldFixture(t testing.TB, owners []identity.NodeID, blocks int) *worldFixture {
	fx := &worldFixture{chains: map[identity.NodeID][]*block.Block{}}
	for _, o := range owners {
		fx.chains[o] = chainFor(t, identity.Deterministic(o, 4), blocks, nil)
	}
	fx.foreign = chainFor(t, identity.Deterministic(99, 4), worldForeign, nil)
	return fx
}

// apply runs one op against the world.
func (w *world) apply(fx *worldFixture, op worldOp) {
	w.t.Helper()
	st := w.sts[op.owner]
	switch op.kind {
	case 0:
		b := fx.chains[op.owner][st.Store.Len()]
		if w.stage {
			// The block's record is staged and its window closed before
			// the append, which then finds it durable.
			if err := w.fbs[op.owner].StageBlock(b); err != nil {
				w.t.Fatalf("stage for %v: %v", op.owner, err)
			}
			if err := w.fbs[op.owner].log.Commit(); err != nil {
				w.t.Fatalf("commit for %v: %v", op.owner, err)
			}
		}
		if err := st.Store.Append(b); err != nil {
			w.t.Fatalf("append for %v: %v", op.owner, err)
		}
	case 1:
		st.Trust.Add(fx.foreign[op.arg].Header.Clone())
	case 2:
		st.Cache.Update(identity.NodeID(90+op.arg%4), digest.Sum([]byte{byte(op.arg)}))
	case 3:
		st.Cache.Forget(identity.NodeID(90 + op.arg))
	case 4:
		if err := w.compact(); err != nil {
			w.t.Fatalf("compact (shared=%v): %v", w.shared, err)
		}
	case 5:
		w.open(op.owner)
	}
}

// sameStates fails unless both maps hold the same owners and bytes.
func sameStates(t *testing.T, what string, got, want map[identity.NodeID][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d owners, want %d", what, len(got), len(want))
	}
	for o, w := range want {
		if !bytes.Equal(got[o], w) {
			t.Errorf("%s: owner %v differs", what, o)
		}
	}
}

// TestSharedLogDifferential drives the seeded workload through N
// one-device dirs and through one shared log, and checks at every
// stop — a crash mid-run, one device bounced, a crash at the end — that
// both recover, owner by owner, the exact bytes the live states held.
// Blocks go in both ways a block reaches the log: an unstaged LogBlock
// that closes its own window, and a staged record whose window is
// committed before the append, as the live drivers seal.
func TestSharedLogDifferential(t *testing.T) {
	for _, stage := range []bool{false, true} {
		t.Run(map[bool]string{false: "LogBlock", true: "staged"}[stage], func(t *testing.T) {
			owners := []identity.NodeID{1, 2, 3, 4}
			const joiner = identity.NodeID(5)
			all := append(append([]identity.NodeID(nil), owners...), joiner)
			fx := newWorldFixture(t, all, 80)
			ops := worldWorkload(20, owners, joiner, 260)

			base := t.TempDir()
			private := newWorld(t, filepath.Join(base, "private"), false)
			shared := newWorld(t, filepath.Join(base, "shared"), true)
			worlds := []*world{private, shared}
			for _, w := range worlds {
				w.stage = stage
				for _, o := range owners {
					w.open(o)
				}
			}
			// crashAndRecover kills the process: every record logged is
			// written (a kill leaves the kernel's copy), then every handle
			// is dropped — nothing closed, nothing synced beyond what the
			// appends already had — and the given owners cold-start.
			crashAndRecover := func(what string, up []identity.NodeID) {
				t.Helper()
				want := private.states()
				sameStates(t, what+": live states, shared vs private", shared.states(), want)
				for _, w := range worlds {
					w.flush()
					w.reopen()
					for _, o := range up {
						w.open(o)
					}
				}
				sameStates(t, what+": private layout recovered", private.states(), want)
				sameStates(t, what+": shared log recovered", shared.states(), want)
			}
			for i, op := range ops {
				for _, w := range worlds {
					w.apply(fx, op)
				}
				switch i {
				case 100:
					crashAndRecover("crash at step 100", owners)
				case 200:
					// One device bounces while the rest stay up.
					want := private.states()
					for _, w := range worlds {
						w.silence(3)
						w.open(3)
					}
					sameStates(t, "bounce: private", private.states(), want)
					sameStates(t, "bounce: shared", shared.states(), want)
					// Silenced with everything in its snapshot, on a log
					// that was there to see it: nothing to look for in it.
					if rep := shared.fbs[3].RecoveryReport(); rep.WALBytes != 0 {
						t.Errorf("the bounced owner read %d bytes of a log that holds nothing its snapshot lacks", rep.WALBytes)
					}
				}
			}
			crashAndRecover("crash at the end", all)
			for _, w := range worlds {
				w.close()
			}
		})
	}
}

// ownRecords rewrites the intact prefix of a shared generation as the
// generation of a dir of owner o's alone: its records only.
func ownRecords(t *testing.T, buf []byte, o identity.NodeID) []byte {
	t.Helper()
	var out []byte
	for off := 0; off < len(buf); {
		rec, n, err := scanWALRecord(buf[off:])
		if err != nil {
			break
		}
		off += n
		if owner, ok := rec.owner(); !ok {
			t.Fatalf("record of kind %d names no owner", rec.kind)
		} else if owner == o {
			out = appendWALRecord(out, rec.kind, rec.payload)
		}
	}
	return out
}

// TestSharedLogRecoveryReport: a shared log cuts a torn wal.log tail
// off as it opens, and the Recover that follows reports the cut, as
// one device's dir does (TestFileBackendRecoveryReport).
func TestSharedLogRecoveryReport(t *testing.T) {
	base := t.TempDir()
	blocks := chainFor(t, identity.Deterministic(4, 4), 2, nil)
	var log []byte
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[0]))
	intact := len(log)
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[1]))
	torn := log[:len(log)-3]
	if err := os.WriteFile(filepath.Join(base, walFileName), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(base)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fb, err := l.OpenBackend(filepath.Join(base, "node-4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Recover(RecoverOptions{Owner: 4, Params: testParams()}); err != nil {
		t.Fatal(err)
	}
	rep := fb.RecoveryReport()
	rep.Duration = 0
	want := RecoveryReport{WALBlocks: 1, WALBytes: intact, TornTail: true, TornBytes: len(torn) - intact}
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
}

// TestSharedLogReplayedOwnerStaysUncovered: an owner that replays records
// of its own from the log and closes before any checkpoint holds them
// is still uncovered. So its next Recover reads the log again, and a
// whole-log compaction meanwhile leaves the records alone.
func TestSharedLogReplayedOwnerStaysUncovered(t *testing.T) {
	base := t.TempDir()
	blocks := chainFor(t, identity.Deterministic(4, 4), 2, nil)
	var raw []byte
	for _, b := range blocks {
		raw = appendWALRecord(raw, walKindBlock, block.Encode(b))
	}
	if err := os.WriteFile(filepath.Join(base, walFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(base)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recoverOwner := func(o identity.NodeID) (*FileBackend, *NodeState) {
		t.Helper()
		fb, err := l.OpenBackend(filepath.Join(base, fmt.Sprintf("node-%d", o)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := fb.Recover(RecoverOptions{Owner: o, Params: testParams()})
		if err != nil {
			t.Fatal(err)
		}
		return fb, st
	}
	for round := 0; round < 2; round++ {
		fb, st := recoverOwner(4)
		if rep := fb.RecoveryReport(); st.Store.Len() != 2 || rep.WALBlocks != 2 {
			t.Fatalf("recovery %d: %d blocks, report %+v; want 2 from the log", round, st.Store.Len(), rep)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		// Another owner open and a whole-log compaction: nothing holds
		// owner 4's records but the log, so the log must keep them.
		other, otherSt := recoverOwner(5)
		if err := l.Compact(func(identity.NodeID) (*NodeState, error) { return otherSt, nil }); err != nil {
			t.Fatal(err)
		}
		if now, err := os.ReadFile(filepath.Join(base, walFileName)); err != nil || !bytes.Equal(now, raw) {
			t.Fatalf("recovery %d: wal.log went from %d to %d bytes (%v) under a compaction", round, len(raw), len(now), err)
		}
		if err := other.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedLogCrashMatrix crashes a shared log at every point it can
// be written. wal.log: cut at every record boundary and inside every
// record, each owner must come back as its checkpoint and segment plus
// exactly its own records of the intact prefix — checked against a dir
// of its own holding just those records — and never with a record of
// anybody else's, and each must report the tear the log cut off. Compaction and Silence: the data dir as it
// stands halfway through and after every write of every step (segment
// appends, checkpoint.tmp), before and after every rename (the
// rotation; each checkpoint's commit, so a crash before its dir fsync
// either way), must recover every owner to the state it had — and,
// carrying on from there, find again what it appends behind whatever
// the crash left.
func TestSharedLogCrashMatrix(t *testing.T) {
	t.Run("wal.log", func(t *testing.T) {
		owners := []identity.NodeID{1, 2, 3}
		fx := newWorldFixture(t, owners, 40)
		base := t.TempDir()
		w := newWorld(t, base, true)
		for _, o := range owners {
			w.open(o)
		}
		// 36 steps run up to the first compaction, the rest fill wal.log.
		for _, op := range worldWorkload(7, owners, 0, 37+30) {
			w.apply(fx, op)
		}
		w.close()
		raw, err := os.ReadFile(filepath.Join(base, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		var cuts []int
		for off := 0; off < len(raw); {
			_, n, err := scanWALRecord(raw[off:])
			if err != nil {
				t.Fatalf("fixture log damaged at %d: %v", off, err)
			}
			cuts = append(cuts, off, off+1, off+n/2, off+n-1)
			off += n
		}
		cuts = append(cuts, len(raw))
		if len(cuts) < 4*20 {
			t.Fatalf("only %d cut points: the fixture log is too short to mean anything", len(cuts))
		}
		for _, cut := range cuts {
			intact := 0
			for intact < cut {
				_, n, err := scanWALRecord(raw[intact:cut])
				if err != nil {
					break
				}
				intact += n
			}
			cdir := t.TempDir()
			for _, o := range owners {
				ndir := filepath.Join(cdir, fmt.Sprintf("node-%d", o))
				if err := os.Mkdir(ndir, 0o755); err != nil {
					t.Fatal(err)
				}
				copyLedgerDir(t, w.dir(o), ndir) // a node dir of a shared log: segment and checkpoint
			}
			if err := os.WriteFile(filepath.Join(cdir, walFileName), raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			got := newWorld(t, cdir, true)
			for _, o := range owners {
				got.open(o)
				// The reference: o's segment, checkpoint and records, in a dir of
				// its own.
				rdir := t.TempDir()
				copyLedgerDir(t, w.dir(o), rdir)
				if err := os.WriteFile(filepath.Join(rdir, walFileName), ownRecords(t, raw[:cut], o), 0o644); err != nil {
					t.Fatal(err)
				}
				ref, err := OpenFileBackend(rdir)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Recover(worldOpts(o))
				if err != nil {
					t.Fatalf("cut %d: reference recovery of %v: %v", cut, o, err)
				}
				wantBytes := stateBytes(t, want) // read while its backend is open
				ref.Close()
				if !bytes.Equal(stateBytes(t, got.sts[o]), wantBytes) {
					t.Fatalf("cut %d: owner %v recovered something other than its own records of the intact prefix", cut, o)
				}
				if rep := got.fbs[o].RecoveryReport(); rep.TornTail != (cut > intact) || rep.TornBytes != cut-intact {
					t.Fatalf("cut %d: owner %v reported torn=%v over %d bytes, want the %d bytes the log cut off as it opened",
						cut, o, rep.TornTail, rep.TornBytes, cut-intact)
				}
			}
			// The tear is gone for good: what is appended now is found again.
			got.sts[1].Cache.Update(77, digest.Sum([]byte("after the tear")))
			want := got.states()
			got.close()
			again := newWorld(t, cdir, true)
			for _, o := range owners {
				again.open(o)
			}
			sameStates(t, fmt.Sprintf("cut %d: reopened after appending behind the cut", cut), again.states(), want)
			again.close()
		}
	})
	t.Run("compaction and Silence", func(t *testing.T) {
		owners := []identity.NodeID{1, 2, 3}
		fx := newWorldFixture(t, owners, 60)
		base := t.TempDir()
		rec := &crashRecorder{base: base}
		w := newWorld(t, base, true, rec.options()...)
		defer func() { w.close() }()
		for _, o := range owners {
			w.open(o)
		}
		// One compaction on the way, so segments and checkpoints are not
		// empty, then records it has not folded.
		for _, op := range worldWorkload(7, owners, 0, 37+30) {
			w.apply(fx, op)
		}
		if err := w.log.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, step := range []struct {
			name string
			run  func()
		}{
			{"compaction", func() {
				if err := w.compact(); err != nil {
					t.Fatal(err)
				}
			}},
			{"Silence", func() { w.silence(2) }},
		} {
			// Blocks the step has to append to the segment.
			for i := 0; i < 3; i++ {
				w.apply(fx, worldOp{kind: 0, owner: 2})
			}
			if err := w.log.Commit(); err != nil {
				t.Fatal(err)
			}
			want := w.states()
			images := rec.record(step.run)
			if len(images) < 6 {
				t.Fatalf("%s: %d crash points: nothing was written", step.name, len(images))
			}
			for i, img := range images {
				dir := writeImage(t, img)
				got := newWorld(t, dir, true)
				for _, o := range owners {
					got.open(o)
				}
				sameStates(t, fmt.Sprintf("%s, crash point %d", step.name, i), got.states(), want)
				// Carry on behind the crash: a block and a digest each, a
				// compaction, a cold start.
				for _, o := range owners {
					got.apply(fx, worldOp{kind: 0, owner: o})
					got.apply(fx, worldOp{kind: 2, owner: o, arg: 9})
				}
				if err := got.compact(); err != nil {
					t.Fatalf("%s, crash point %d: compacting after recovery: %v", step.name, i, err)
				}
				after := got.states()
				got.close()
				for _, o := range owners {
					strictSegment(t, got.dir(o))
				}
				again := newWorld(t, dir, true)
				for _, o := range owners {
					again.open(o)
				}
				sameStates(t, fmt.Sprintf("%s, crash point %d: carried on", step.name, i), again.states(), after)
				again.close()
			}
		}
	})
}

// crashRecorder takes an image of the data dir at every crash point of
// the file writes under it while recording: halfway through and after
// each write and truncation, before and after each rename. One lock
// holds every write through the seam and every image, so an image is
// always a prefix of the operations as they happened in order.
type crashRecorder struct {
	mu     sync.Mutex
	base   string
	on     bool
	images []map[string][]byte
}

func (c *crashRecorder) options() []BackendOption {
	return []BackendOption{
		WithWALFile(func(f WALFile) WALFile { return recordedFile{f, c} }),
		func(l *Log) {
			l.rename = func(oldpath, newpath string) error {
				c.mu.Lock()
				defer c.mu.Unlock()
				c.imageLocked()
				err := os.Rename(oldpath, newpath)
				c.imageLocked()
				return err
			}
		},
	}
}

// record runs step and returns the images taken meanwhile, and one of
// where it left the dir.
func (c *crashRecorder) record(step func()) []map[string][]byte {
	c.mu.Lock()
	c.on, c.images = true, nil
	c.mu.Unlock()
	step()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.imageLocked()
	c.on = false
	return c.images
}

func (c *crashRecorder) imageLocked() {
	if !c.on {
		return
	}
	img, err := readTree(c.base)
	if err != nil {
		panic(err) // on a writer's goroutine: no t.Fatal here
	}
	c.images = append(c.images, img)
}

type recordedFile struct {
	WALFile
	c *crashRecorder
}

func (f recordedFile) Write(p []byte) (int, error) {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	n, err := f.WALFile.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	f.c.imageLocked()
	m, err := f.WALFile.Write(p[len(p)/2:])
	f.c.imageLocked()
	return n + m, err
}

func (f recordedFile) Truncate(size int64) error {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	err := f.WALFile.Truncate(size)
	f.c.imageLocked()
	return err
}

// TestSharedLogTornOldGeneration: the shared wal.old was synced and
// repaired before it got that name, like any wal.old, so a tear in it
// is corruption for every owner, not a crash artifact to cut off.
func TestSharedLogTornOldGeneration(t *testing.T) {
	base := t.TempDir()
	w := newWorld(t, base, true)
	fx := newWorldFixture(t, []identity.NodeID{1, 2}, 4)
	for _, o := range []identity.NodeID{1, 2} {
		w.open(o)
		for i := 0; i < 3; i++ {
			w.apply(fx, worldOp{kind: 0, owner: o})
		}
	}
	w.close()
	raw, err := os.ReadFile(filepath.Join(base, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(base, walOldFileName), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(base, walFileName)); err != nil {
		t.Fatal(err)
	}
	w.reopen()
	defer w.close()
	for _, o := range []identity.NodeID{1, 2} {
		if _, _, err := w.recover(o); !errors.Is(err, ErrBadWALRecord) {
			t.Fatalf("owner %v recovered from a torn wal.old: %v", o, err)
		}
	}
}

// TestSharedLogSilencedAcrossCompactions: a device taken down leaves its
// whole state in its snapshot, so the compactions the others trigger
// afterwards may retire every generation that held its records — and
// one taken down without is held against them until it is back.
func TestSharedLogSilencedAcrossCompactions(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3}
	fx := newWorldFixture(t, owners, 30)
	base := t.TempDir()
	w := newWorld(t, base, true)
	defer func() { w.close() }()
	for _, o := range owners {
		w.open(o)
	}
	drive := func(o identity.NodeID, n int) {
		for i := 0; i < n; i++ {
			w.apply(fx, worldOp{kind: 0, owner: o})
			w.apply(fx, worldOp{kind: 1, owner: o, arg: i % worldForeign})
			w.apply(fx, worldOp{kind: 2, owner: o, arg: i})
		}
	}
	for _, o := range owners {
		drive(o, 4)
	}
	want := stateBytes(t, w.sts[3])
	w.silence(3)
	for round := 0; round < 2; round++ {
		drive(1, 3)
		drive(2, 3)
		if err := w.compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(base, walOldFileName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("compaction %d kept wal.old although every owner in it is covered", round)
		}
	}
	w.open(3)
	if !bytes.Equal(stateBytes(t, w.sts[3]), want) {
		t.Fatal("a device silenced before two compactions came back changed")
	}

	// Now the wrong way: closed with records its snapshot does not hold.
	drive(3, 2)
	want = stateBytes(t, w.sts[3])
	if err := w.fbs[3].Close(); err != nil {
		t.Fatal(err)
	}
	delete(w.fbs, 3)
	delete(w.sts, 3)
	drive(1, 2)
	before, err := os.ReadFile(filepath.Join(base, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.compact(); err != nil {
		t.Fatalf("a compaction held off is not an error: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(base, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the log rotated over the records of an owner nothing covers")
	}
	w.open(3)
	if !bytes.Equal(stateBytes(t, w.sts[3]), want) {
		t.Fatal("an owner closed without a snapshot lost records")
	}
	// Back and gatherable: the next compaction goes through, and a cold
	// start finds everybody.
	if err := w.compact(); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(filepath.Join(base, walFileName)); err != nil || len(now) != 0 {
		t.Fatalf("compaction still held off with every owner open: %d bytes, %v", len(now), err)
	}
	all := w.states()
	w.reopen()
	for _, o := range owners {
		w.open(o)
	}
	sameStates(t, "cold start", w.states(), all)
}

// TestSharedLogRestartWhileOthersLog bounces one owner over and over
// while the others keep sealing, logging lazy records and compacting
// the log they all share. Run under -race.
func TestSharedLogRestartWhileOthersLog(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3}
	const bounced = identity.NodeID(4)
	fx := newWorldFixture(t, append(owners, bounced), 60)
	base := t.TempDir()
	w := newWorld(t, base, true)
	for _, o := range append(owners, bounced) {
		w.open(o)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, o := range owners {
		st := w.sts[o]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := st.Store.Append(fx.chains[st.Store.Owner()][i]); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				st.Trust.Add(fx.foreign[i%worldForeign].Header.Clone())
				st.Cache.Update(90, digest.Sum([]byte{byte(i)}))
			}
		}()
	}
	// The bounced owner's state is a new object after every recovery; a
	// compaction that meets its backend open gathers the latest one it
	// can see, which holds what the one before held.
	var cur atomic.Pointer[NodeState]
	cur.Store(w.sts[bounced])
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.log.Compact(func(o identity.NodeID) (*NodeState, error) {
				if o == bounced {
					return cur.Load(), nil
				}
				return w.sts[o], nil
			}); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	fb, st := w.fbs[bounced], w.sts[bounced]
	for i := 0; i < 20; i++ {
		if err := st.Store.Append(fx.chains[bounced][i]); err != nil {
			t.Fatal(err)
		}
		st.Cache.Update(91, digest.Sum([]byte{byte(i)}))
		want := stateBytes(t, st)
		if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if fb, st, err = w.recover(bounced); err != nil {
			t.Fatalf("bounce %d: %v", i, err)
		}
		cur.Store(st)
		if !bytes.Equal(stateBytes(t, st), want) {
			t.Fatalf("bounce %d: state changed across the bounce (recovery read %+v)", i, fb.RecoveryReport())
		}
		st.Attach(fb)
	}
	close(stop)
	wg.Wait()
	w.fbs[bounced], w.sts[bounced] = fb, st
	want := w.states()
	w.reopen()
	for _, o := range append(owners, bounced) {
		w.open(o)
	}
	sameStates(t, "cold start after the bounces", w.states(), want)
	w.close()
}
