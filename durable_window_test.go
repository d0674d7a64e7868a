package twoldag

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/twoldag/twoldag/internal/cluster"
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

func (w *windowLog) OnWALCommit(blocks int, _ int64) { w.add(fmt.Sprintf("commit %d", blocks)) }
func (w *windowLog) OnBlockSealed(BlockSealed)       { w.add("sealed") }
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
// all its blocks; two blocks per device, two — and no block of a round
// is reported sealed, let alone announced, before its window's fsync
// has returned. One goroutine seals each round, or four do.
func TestSubmitBatchDurableOneWindow(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			obs := &windowLog{}
			rt := compactEvery(newRuntime(t, append(baseOptions(8, 1), WithObserver(obs),
				WithDataDir(t.TempDir()))...), 3)
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

// TestCompactionAtDefaultThreshold: left alone, the live driver
// compacts at cluster.DefaultCompactEvery. One batch takes a device
// past that many block records in the current generation, and the log
// compacts exactly once inside it — wal.old gone, the blocks in the
// device's segment under a checkpoint, its pending count started over
// — without a commit window of its own: one window per round.
func TestCompactionAtDefaultThreshold(t *testing.T) {
	const (
		owner  = NodeID(0)
		rounds = cluster.DefaultCompactEvery + 4
	)
	dir := t.TempDir()
	obs := &windowLog{}
	rt := newRuntime(t, append(baseOptions(3, 1), WithDifficulty(0), WithDataDir(dir), WithObserver(obs))...)
	rt.AdvanceSlot()
	obs.take()
	batch := make([]Submission, rounds)
	for i := range batch {
		batch[i] = Submission{Node: owner, Data: []byte(fmt.Sprint("reading ", i))}
	}
	if _, err := rt.SubmitBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	windows := 0
	for _, e := range obs.take() {
		if strings.HasPrefix(e, "commit") {
			windows++
			if e != "commit 1" {
				t.Fatalf("window %d is %q, want one block's", windows, e)
			}
		}
	}
	if windows != rounds {
		t.Fatalf("%d commit windows for %d rounds", windows, rounds)
	}
	if p := rt.(*Cluster).devs[owner].Backend().PendingBlocks(); p != rounds-cluster.DefaultCompactEvery {
		t.Fatalf("%d pending blocks after %d rounds, want the %d since one compaction", p, rounds, rounds-cluster.DefaultCompactEvery)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.old")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("wal.old outlived the compaction: %v", err)
	}
	for _, name := range []string{"checkpoint.2ldg", "blocks.seg"} {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node-%d", owner), name)); err != nil {
			t.Fatalf("no %s after the compaction: %v", name, err)
		}
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
// commit window fails. Nothing of that window is appended to a store,
// reported sealed, announced, returned or counted as pending; the next
// batch seals the same sequence numbers and goes through; and the data
// dir recovers to exactly the state in memory. One goroutine seals
// each round, or four do.
func TestSubmitBatchFailedWindowPublishesNothing(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			faults := &syncFaults{}
			obs := &windowLog{}
			dir := t.TempDir()
			opts := append(baseOptions(6, 1), WithObserver(obs), WithDataDir(dir),
				withSyncFaults(faults))
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
			pendingBefore := c.devs[ids[0]].Backend().PendingBlocks()

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
				if p := c.devs[id].Backend().PendingBlocks(); p != pendingBefore {
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

// TestRestartAfterDamagedCheckpoint: a Restart that fails must leave
// nothing behind. It used to leave the device's endpoint registered on
// the fabric (on TCP a listening socket with it), so the retry, after
// the operator had repaired the dir, failed with "peer already
// registered".
func TestRestartAfterDamagedCheckpoint(t *testing.T) {
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
			ckpt := filepath.Join(dir, fmt.Sprintf("node-%d", victim), "checkpoint.2ldg")
			good, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatalf("Silence left no checkpoint: %v", err)
			}
			if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(victim); err == nil {
				t.Fatal("Restart recovered from a garbage checkpoint")
			}
			if _, err := c.StateDigest(victim); err == nil {
				t.Fatal("a device whose Restart failed counts as running")
			}
			if err := os.WriteFile(ckpt, good, 0o644); err != nil {
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
// compactions retired, its checkpoint and segment from Silence hold
// them all.
func TestSilencedAcrossCompactions(t *testing.T) {
	dir := t.TempDir()
	rt := compactEvery(newRuntime(t, append(baseOptions(6, 1), WithDataDir(dir))...), 3)
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
	rt2 := compactEvery(newRuntime(t, append(baseOptions(6, 1), WithDataDir(dir))...), 3)
	for id, d := range digests(t, rt2.(*Cluster), rt2.Nodes()) {
		if d != want[id] {
			t.Errorf("node %v cold-started into another state", id)
		}
	}
}
