package twoldag

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/twoldag/twoldag/internal/ledger"
)

// The durable commit window at the facade: one fsync per round of a
// batch on the data dir's one log, closed before anything of the round
// is visible, and what the devices of a data dir go through together —
// a window that fails, a device that does not come back at the first
// try, a device away while the log compacts, a dir written when every
// device still had a log of its own.

// windowLog records, in order, what a batch lets the outside see.
type windowLog struct {
	NopObserver
	mu     sync.Mutex
	events []string // "commit <blocks>", "sealed", "announced"
}

func (w *windowLog) add(e string) {
	w.mu.Lock()
	w.events = append(w.events, e)
	w.mu.Unlock()
}

func (w *windowLog) take() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.events
	w.events = nil
	return out
}

func (w *windowLog) OnWALCommit(blocks int, _ int64)   { w.add(fmt.Sprintf("commit %d", blocks)) }
func (w *windowLog) OnBlockSealed(BlockSealed)         { w.add("sealed") }
func (w *windowLog) OnDigestAnnounced(DigestAnnounced) { w.add("announced") }
func (w *windowLog) OnDigestBatchDelivered(e DigestBatchDelivered) {
	for range e.Digests {
		w.add("announced")
	}
}

// slotBatch is one submission per device, perOwner times over.
func slotBatch(ids []NodeID, perOwner int, tag string) []Submission {
	var batch []Submission
	for r := 0; r < perOwner; r++ {
		for _, id := range ids {
			batch = append(batch, Submission{Node: id, Data: []byte(fmt.Sprintf("%s %v.%d", tag, id, r))})
		}
	}
	return batch
}

// TestSubmitBatchDurableOneWindow is the count guard of the shared log:
// a batch of one block per device closes exactly one commit window, of
// all its blocks; two blocks per device, two — under SyncAlways and
// SyncBatch alike — and no block of a round is reported sealed, let
// alone announced, before its window's fsync has returned.
func TestSubmitBatchDurableOneWindow(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways(), SyncBatch()} {
		t.Run(policy.String(), func(t *testing.T) {
			obs := &windowLog{}
			rt := newRuntime(t, append(baseOptions(8, 1), WithObserver(obs),
				WithDataDir(t.TempDir()), WithSyncPolicy(policy), WithCompactEvery(3))...)
			ids := rt.Nodes()
			ctx := context.Background()
			// Six blocks per device over a threshold of three: compactions
			// run inside these batches, and must not show up as windows.
			for slot, perOwner := range []int{1, 2, 1, 2} {
				rt.AdvanceSlot()
				obs.take()
				batch := slotBatch(ids, perOwner, fmt.Sprint("slot ", slot))
				if _, err := rt.SubmitBatch(ctx, batch); err != nil {
					t.Fatal(err)
				}
				events := obs.take()
				commits, sealed, announced := 0, 0, 0
				for i, e := range events {
					switch e {
					case "sealed":
						sealed++
						if sealed > commits*len(ids) {
							t.Fatalf("slot %d: event %d reports block %d sealed after only %d windows of %d blocks: %v", slot, i, sealed, commits, len(ids), events)
						}
					case "announced":
						announced++
						if commits != perOwner || sealed != len(batch) {
							t.Fatalf("slot %d: event %d is an announcement after %d windows and %d seals, want all %d and %d first", slot, i, commits, sealed, perOwner, len(batch))
						}
					default:
						commits++
						if want := fmt.Sprintf("commit %d", len(ids)); e != want {
							t.Fatalf("slot %d: window %d is %q, want %q", slot, commits, e, want)
						}
					}
				}
				if commits != perOwner || sealed != len(batch) || announced == 0 {
					t.Fatalf("slot %d: %d windows, %d seals, %d announcements for %d blocks per device: %v", slot, commits, sealed, announced, perOwner, events)
				}
			}
		})
	}
}

// syncFaults fails n fsyncs of the log it is put under, after letting
// skip of them through.
type syncFaults struct {
	mu      sync.Mutex
	skip, n int
}

var errSyncFault = errors.New("injected fsync failure")

type syncFaultFile struct {
	ledger.WALFile
	f *syncFaults
}

func (ff syncFaultFile) Sync() error {
	ff.f.mu.Lock()
	fail := ff.f.skip == 0 && ff.f.n > 0
	switch {
	case fail:
		ff.f.n--
	case ff.f.skip > 0:
		ff.f.skip--
	}
	ff.f.mu.Unlock()
	if fail {
		return errSyncFault
	}
	return ff.WALFile.Sync()
}

func (f *syncFaults) fail(skip, n int) {
	f.mu.Lock()
	f.skip, f.n = skip, n
	f.mu.Unlock()
}

// withSyncFaults puts f under the cluster's log. In-package on purpose:
// the facade has no such option.
func withSyncFaults(f *syncFaults) Option {
	return func(c *config) error {
		c.backendOpts = append(c.backendOpts, ledger.WithWALFile(func(w ledger.WALFile) ledger.WALFile {
			return syncFaultFile{w, f}
		}))
		return nil
	}
}

// TestSubmitBatchFailedWindowPublishesNothing: the fsync of a batch's
// commit window fails. Under either policy nothing of that window is
// appended to a store, reported sealed, announced, returned or counted
// as pending; the next batch seals the same sequence numbers and goes
// through; and the data dir recovers to exactly the state in memory.
// (Before the shared log, SyncBatch appended at stage time: a failed
// window left blocks in memory that the log no longer held.)
func TestSubmitBatchFailedWindowPublishesNothing(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways(), SyncBatch()} {
		t.Run(policy.String(), func(t *testing.T) {
			faults := &syncFaults{}
			obs := &windowLog{}
			dir := t.TempDir()
			opts := append(baseOptions(6, 1), WithObserver(obs), WithDataDir(dir),
				WithSyncPolicy(policy), withSyncFaults(faults))
			rt, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { rt.Close() }()
			c := rt.(*Cluster)
			ids := rt.Nodes()
			ctx := context.Background()
			submit := func(perOwner int, tag string) ([]Ref, error) {
				rt.AdvanceSlot()
				return rt.SubmitBatch(ctx, slotBatch(ids, perOwner, tag))
			}
			if _, err := submit(1, "first"); err != nil {
				t.Fatal(err)
			}
			pendingBefore := c.backends[ids[0]].PendingBlocks()

			obs.take()
			faults.fail(0, 1)
			refs, err := submit(1, "lost")
			if !errors.Is(err, errSyncFault) {
				t.Fatalf("want the window's fsync error, got %v", err)
			}
			if len(refs) != 0 {
				t.Fatalf("refs %v returned for blocks that are not durable", refs)
			}
			if events := obs.take(); len(events) != 0 {
				t.Fatalf("a failed window let the outside see %v", events)
			}
			for _, id := range ids {
				if _, err := rt.Block(Ref{Node: id, Seq: 1}); err == nil {
					t.Fatalf("node %v holds a block of the failed window", id)
				}
				if p := c.backends[id].PendingBlocks(); p != pendingBefore {
					t.Fatalf("node %v: %d pending blocks, %d before the failed window", id, p, pendingBefore)
				}
			}

			refs, err = submit(1, "second")
			if err != nil {
				t.Fatal(err)
			}
			for i, ref := range refs {
				if ref.Node != ids[i] || ref.Seq != 1 {
					t.Fatalf("ref %d = %v, want %v#1: the failed window's sequence numbers, sealed again", i, ref, ids[i])
				}
			}

			// Two blocks per device, and the second round's window fails:
			// the first round stands — durable, sealed, returned — and
			// nothing of the batch is announced.
			obs.take()
			faults.fail(1, 1)
			refs, err = submit(2, "half")
			if !errors.Is(err, errSyncFault) {
				t.Fatalf("want the second window's fsync error, got %v", err)
			}
			if len(refs) != len(ids) {
				t.Fatalf("%d refs, want the %d of the round whose window closed", len(refs), len(ids))
			}
			for i, e := range obs.take() {
				if want := "sealed"; (i == 0 && e != fmt.Sprintf("commit %d", len(ids))) || (i > 0 && e != want) || i > len(ids) {
					t.Fatalf("event %d of the half-failed batch is %q", i, e)
				}
			}
			for _, id := range ids {
				if _, err := rt.Block(Ref{Node: id, Seq: 2}); err != nil {
					t.Fatalf("node %v lost its block of the round that closed: %v", id, err)
				}
				if _, err := rt.Block(Ref{Node: id, Seq: 3}); err == nil {
					t.Fatalf("node %v holds a block of the failed window", id)
				}
			}
			if refs, err = submit(1, "third"); err != nil || refs[0].Seq != 3 {
				t.Fatalf("the batch after: %v, %v", refs, err)
			}
			want := map[NodeID]Digest{}
			for _, id := range ids {
				d, err := c.StateDigest(id)
				if err != nil {
					t.Fatal(err)
				}
				want[id] = d
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			rt, err = New(opts...)
			if err != nil {
				t.Fatalf("reopening the data dir: %v", err)
			}
			for _, id := range ids {
				d, err := rt.(*Cluster).StateDigest(id)
				if err != nil {
					t.Fatal(err)
				}
				if d != want[id] {
					t.Errorf("node %v recovered another state than it had in memory", id)
				}
			}
		})
	}
}

// digests reads every listed node's state digest.
func digests(t *testing.T, c *Cluster, ids []NodeID) map[NodeID]Digest {
	t.Helper()
	out := map[NodeID]Digest{}
	for _, id := range ids {
		d, err := c.StateDigest(id)
		if err != nil {
			t.Fatalf("StateDigest(%v): %v", id, err)
		}
		out[id] = d
	}
	return out
}

// TestRestartAfterDamagedSnapshot: a Restart that fails must leave
// nothing behind. It used to leave the device's endpoint registered on
// the fabric (on TCP a listening socket with it), so the retry, after
// the operator had repaired the dir, failed with "peer already
// registered".
func TestRestartAfterDamagedSnapshot(t *testing.T) {
	for _, kind := range []TransportKind{InMemory, TCP} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			dir := t.TempDir()
			rt := newRuntime(t, append(baseOptions(6, 1), WithTransport(kind), WithDataDir(dir))...)
			c := rt.(*Cluster)
			fillBatch(t, rt, 3)
			const victim = NodeID(3)
			before := digests(t, c, []NodeID{victim})[victim]
			if err := rt.Silence(victim); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(dir, fmt.Sprintf("node-%d", victim), "snapshot.2ldg")
			good, err := os.ReadFile(snap)
			if err != nil {
				t.Fatalf("Silence left no snapshot: %v", err)
			}
			if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(victim); err == nil {
				t.Fatal("Restart recovered from a garbage snapshot")
			}
			if _, err := c.StateDigest(victim); err == nil {
				t.Fatal("a device whose Restart failed counts as running")
			}
			if err := os.WriteFile(snap, good, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(victim); err != nil {
				t.Fatalf("Restart after the dir was repaired: %v", err)
			}
			if after := digests(t, c, []NodeID{victim})[victim]; after != before {
				t.Fatal("the device came back changed")
			}
			fillBatch(t, rt, 1) // and takes part again
		})
	}
}

// TestSilencedAcrossCompactions: a device silenced while the others
// seal on through two compactions of the log they share comes back
// byte-identical — its records went with the generations the
// compactions retired, its snapshot from Silence holds them all.
func TestSilencedAcrossCompactions(t *testing.T) {
	dir := t.TempDir()
	rt := newRuntime(t, append(baseOptions(6, 1), WithDataDir(dir), WithCompactEvery(3))...)
	c := rt.(*Cluster)
	ctx := context.Background()
	fillBatch(t, rt, 2)
	const victim = NodeID(2)
	before := digests(t, c, []NodeID{victim})[victim]
	if err := rt.Silence(victim); err != nil {
		t.Fatal(err)
	}
	var rest []NodeID
	for _, id := range rt.Nodes() {
		if id != victim {
			rest = append(rest, id)
		}
	}
	for slot := 0; slot < 7; slot++ { // two thresholds of three and a bit
		rt.AdvanceSlot()
		if _, err := rt.SubmitBatch(ctx, slotBatch(rest, 1, fmt.Sprint("without ", slot))); err != nil {
			t.Fatal(err)
		}
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "wal.log")); err != nil || len(raw) > 3*len(rest)*4096 {
		t.Fatalf("the log never compacted while a device was silent: %d bytes, %v", len(raw), err)
	}
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if after := digests(t, c, []NodeID{victim})[victim]; after != before {
		t.Fatal("the device came back changed")
	}
	// A cold start of everybody finds the same states too.
	fillBatch(t, rt, 1)
	want := digests(t, c, rt.Nodes())
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt2 := newRuntime(t, append(baseOptions(6, 1), WithDataDir(dir), WithCompactEvery(3))...)
	for id, d := range digests(t, rt2.(*Cluster), rt2.Nodes()) {
		if d != want[id] {
			t.Errorf("node %v cold-started into another state", id)
		}
	}
}

// TestClusterOpensPerDeviceLayout: a data dir in the layout of the
// commit before the log was shared — every device's own wal.log,
// wal.old and snapshot under node-<id> — opens, recovers every device
// to the state those files hold, and carries on in the new layout.
func TestClusterOpensPerDeviceLayout(t *testing.T) {
	opts := func(dir string) []Option { return append(baseOptions(6, 1), WithDataDir(dir)) }
	src := newRuntime(t, opts(t.TempDir())...)
	a := src.(*Cluster)
	fillBatch(t, src, 4)
	ids := src.Nodes()

	// Write what a holds the old way: each device through a single-owner
	// backend in its own dir — some compacted halfway, one caught
	// between the rotation and the snapshot of a compaction.
	dir := t.TempDir()
	for i, id := range ids {
		ndir := filepath.Join(dir, fmt.Sprintf("node-%d", id))
		fb, err := ledger.OpenFileBackend(ndir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := fb.Recover(ledger.RecoverOptions{Owner: id, Params: a.params, Ring: a.ring})
		if err != nil {
			t.Fatal(err)
		}
		st.Attach(fb)
		state := a.nodes[id].Engine().State()
		for seq := 0; seq < state.Store.Len(); seq++ {
			b, err := state.Store.Get(uint32(seq))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
			if seq == 1 && i%2 == 0 {
				if err := fb.Compact(func() (*ledger.NodeState, error) { return st, nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, nb := range a.topo.Neighbors(id) {
			if d, ok := state.Cache.Get(nb); ok {
				st.Cache.Update(nb, d)
			}
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := os.Rename(filepath.Join(ndir, "wal.log"), filepath.Join(ndir, "wal.old")); err != nil {
				t.Fatal(err)
			}
		}
	}

	rt := newRuntime(t, opts(dir)...)
	b := rt.(*Cluster)
	want := digests(t, a, ids)
	for id, d := range digests(t, b, ids) {
		if d != want[id] {
			t.Errorf("node %v recovered from its own log into another state", id)
		}
	}
	for _, id := range ids {
		for _, name := range []string{"wal.log", "wal.old"} {
			if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node-%d", id), name)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("node %v still has a %s of its own", id, name)
			}
		}
	}
	// Both carry on alike (from the same slot: logical time is the
	// caller's, not the data dir's), and the converted dir survives a
	// restart in the new layout.
	for rt.Slot() < src.Slot() {
		rt.AdvanceSlot()
	}
	fillBatch(t, src, 2)
	fillBatch(t, rt, 2)
	want = digests(t, a, ids)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt2 := newRuntime(t, opts(dir)...)
	for id, d := range digests(t, rt2.(*Cluster), ids) {
		if d != want[id] {
			t.Errorf("node %v: the converted dir reopened into another state", id)
		}
	}
}
