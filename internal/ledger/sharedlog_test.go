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
// property of the data dir, a process hosting N devices kept N private
// single-owner backends, one per base/node-<id> dir. That layout is
// still what OpenFileBackend writes, so it serves here as the reference:
// one seeded workload goes through both, and whatever either recovers,
// the other must recover byte for byte.

// world keeps a set of owners durable under base, one way or the other.
type world struct {
	t      *testing.T
	base   string
	shared bool
	bopts  []BackendOption
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
		if err := st.Store.Append(fx.chains[op.owner][st.Store.Len()]); err != nil {
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

// TestSharedLogDifferential drives the seeded workload through N private
// single-owner backends and through one shared log, and checks at every
// stop — a crash mid-run, one device bounced, a crash at the end — that
// both recover, owner by owner, the exact bytes the live states held.
func TestSharedLogDifferential(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways(), SyncBatch()} {
		t.Run(policy.String(), func(t *testing.T) {
			owners := []identity.NodeID{1, 2, 3, 4}
			const joiner = identity.NodeID(5)
			all := append(append([]identity.NodeID(nil), owners...), joiner)
			fx := newWorldFixture(t, all, 80)
			ops := worldWorkload(20, owners, joiner, 260)

			base := t.TempDir()
			private := newWorld(t, filepath.Join(base, "private"), false, WithSyncPolicy(policy))
			shared := newWorld(t, filepath.Join(base, "shared"), true, WithSyncPolicy(policy))
			worlds := []*world{private, shared}
			for _, w := range worlds {
				for _, o := range owners {
					w.open(o)
				}
			}
			// crashAndRecover drops every handle — nothing closed, nothing
			// synced beyond what the policy already had — and cold-starts
			// the given owners.
			crashAndRecover := func(what string, up []identity.NodeID) {
				t.Helper()
				want := private.states()
				sameStates(t, what+": live states, shared vs private", shared.states(), want)
				for _, w := range worlds {
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
// single-owner generation of owner o: its records only, tags stripped.
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
		} else if owner != o {
			continue
		}
		if rec.kind&walOwnerTag != 0 {
			out = appendWALRecord(out, rec.kind&^walOwnerTag, rec.payload[walOwnerLen:])
		} else {
			out = appendWALRecord(out, rec.kind, rec.payload)
		}
	}
	return out
}

// TestSharedLogCrashMatrix cuts the shared wal.log at every record
// boundary and inside every record. Each owner must come back as its
// snapshot plus exactly its own records of the intact prefix — checked
// against the single-owner path replaying just those records — and
// never with a record of anybody else's.
func TestSharedLogCrashMatrix(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3}
	fx := newWorldFixture(t, owners, 40)
	base := t.TempDir()
	w := newWorld(t, base, true, WithSyncPolicy(SyncBatch()))
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
		cdir := t.TempDir()
		for _, o := range owners {
			ndir := filepath.Join(cdir, fmt.Sprintf("node-%d", o))
			if err := os.Mkdir(ndir, 0o755); err != nil {
				t.Fatal(err)
			}
			copyLedgerDir(t, w.dir(o), ndir) // a node dir of a shared log: the snapshot
		}
		if err := os.WriteFile(filepath.Join(cdir, walFileName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := newWorld(t, cdir, true)
		for _, o := range owners {
			got.open(o)
			// The reference: o's snapshot and o's records, in a dir of
			// its own, through the single-owner path.
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
			ref.Close()
			if !bytes.Equal(stateBytes(t, got.sts[o]), stateBytes(t, want)) {
				t.Fatalf("cut %d: owner %v recovered something other than its own records of the intact prefix", cut, o)
			}
			if rep := got.fbs[o].RecoveryReport(); rep.TornTail {
				t.Fatalf("cut %d: owner %v saw a torn tail the log should have cut off as it opened", cut, o)
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

// TestSharedLogOpensPrivateLayout: a data dir written when every device
// had a WAL of its own — node-<id>/wal.log, wal.old, snapshot.2ldg, the
// parent commit's Cluster layout — opens as a shared log: each owner
// replays its private generations once, keeps their content in a fresh
// snapshot, and logs to the shared file from then on.
func TestSharedLogOpensPrivateLayout(t *testing.T) {
	owners := []identity.NodeID{1, 2, 3}
	fx := newWorldFixture(t, owners, 40)
	base := t.TempDir()
	old := newWorld(t, base, false)
	for _, o := range owners {
		old.open(o)
	}
	for _, op := range worldWorkload(3, owners, 0, 90) {
		old.apply(fx, op)
	}
	want := old.states()
	old.close()
	// Owner 2 crashed inside a compaction: its generation rotated, its
	// snapshot not yet written.
	if err := os.Rename(filepath.Join(old.dir(2), walFileName), filepath.Join(old.dir(2), walOldFileName)); err != nil {
		t.Fatal(err)
	}

	w := newWorld(t, base, true)
	for _, o := range owners {
		w.open(o)
	}
	sameStates(t, "private layout through the shared log", w.states(), want)
	for _, o := range owners {
		for _, name := range []string{walFileName, walOldFileName} {
			if _, err := os.Stat(filepath.Join(w.dir(o), name)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("owner %v still has a private %s", o, name)
			}
		}
	}
	for _, o := range owners {
		w.apply(fx, worldOp{kind: 0, owner: o})
		w.apply(fx, worldOp{kind: 2, owner: o, arg: 5})
	}
	want = w.states()
	w.reopen() // crash
	for _, o := range owners {
		w.open(o)
	}
	sameStates(t, "after a crash on the shared log", w.states(), want)
	w.close()
}
