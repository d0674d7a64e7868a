package twoldag

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/ledger"
)

// The facade recovery suite: with WithDataDir every device's ledger is
// durable, and a device killed and restarted from its data dir must be
// byte-identical to one that never went down. The probe is
// Cluster.StateDigest — a digest over (S_i, H_i, A_i, trust cap): each
// block's header hash and body root, each trust header's hash in
// insertion order and the insertion count, every cache entry, the cap —
// so "equivalent" means every block, trust header, cache entry and the
// cap itself.

// recoveryRun is one scenario's observable outcome, mirroring the
// chaos suite plus the per-node ledger state digests.
type recoveryRun struct {
	hashes   []Digest
	outcomes []bool
	states   map[NodeID]Digest
}

// runRecoveryScenario drives the fixed workload — three submit slots,
// an idle slot under a seeded crash window on chaosVictim, a post-heal
// submit slot, then audits — against a durable live cluster rooted at
// dataDir. When kill is set, the victim is silenced (backend flushed
// and closed) and restarted from its data dir inside the crash window,
// with its recovery byte-checked against its pre-kill state. every,
// when positive, is the compaction threshold (compactEvery); extra
// options ride on top of the fixed world.
func runRecoveryScenario(t *testing.T, dataDir string, kill bool, every int, extra ...Option) recoveryRun {
	t.Helper()
	plan := FaultPlan{
		Seed:    104,
		Crashes: []CrashWindow{{Node: chaosVictim, From: 4, Until: 5}},
	}
	rt, err := New(append([]Option{
		WithNodes(chaosNodes),
		WithSeed(7),
		WithGamma(1),
		WithDifficulty(2),
		WithRequestTimeout(250 * time.Millisecond),
		WithFaults(plan),
		WithRetryPolicy(chaosRetry()),
		WithDataDir(dataDir),
		WithTrustCap(4),
	}, extra...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	c := rt.(*Cluster)
	compactEvery(rt, every)

	ctx := context.Background()
	ids := rt.Nodes()
	var run recoveryRun
	submitAll := func(tag byte) {
		t.Helper()
		rt.AdvanceSlot()
		batch := make([]Submission, len(ids))
		for i, id := range ids {
			batch[i] = Submission{Node: id, Data: []byte{tag, byte(id)}}
		}
		refs, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			t.Fatalf("SubmitBatch at slot %d: %v", rt.Slot(), err)
		}
		for _, ref := range refs {
			b, err := rt.Block(ref)
			if err != nil {
				t.Fatalf("Block(%v): %v", ref, err)
			}
			run.hashes = append(run.hashes, b.Header.Hash())
		}
	}

	submitAll(1)
	submitAll(2)
	submitAll(3)

	rt.AdvanceSlot() // slot 4: the victim's crash window, no traffic
	if kill {
		before, err := c.StateDigest(chaosVictim)
		if err != nil {
			t.Fatalf("StateDigest before kill: %v", err)
		}
		if err := rt.Silence(chaosVictim); err != nil {
			t.Fatalf("Silence: %v", err)
		}
		if err := c.Restart(chaosVictim); err != nil {
			t.Fatalf("Restart: %v", err)
		}
		after, err := c.StateDigest(chaosVictim)
		if err != nil {
			t.Fatalf("StateDigest after restart: %v", err)
		}
		if after != before {
			t.Fatal("victim's ledger state changed across kill + recovery")
		}
	}

	submitAll(5) // the recovered victim seals and flushes like everyone

	rt.AdvanceSlot() // slot 6: audits, including one of the victim's blocks
	for _, req := range []AuditRequest{
		{Validator: 7, Ref: Ref{Node: 0, Seq: 1}},
		{Validator: 1, Ref: Ref{Node: chaosVictim, Seq: 1}},
	} {
		res, err := rt.Audit(ctx, req.Validator, req.Ref)
		run.outcomes = append(run.outcomes, err == nil && res != nil && res.Consensus)
	}

	run.states = make(map[NodeID]Digest, len(ids))
	for _, id := range ids {
		d, err := c.StateDigest(id)
		if err != nil {
			t.Fatalf("StateDigest(%v): %v", id, err)
		}
		run.states[id] = d
	}
	return run
}

// TestRecoveryFacadeKillRestartEquivalence is the in-process headline
// proof: an uninterrupted durable run and a run whose victim is killed
// and recovered mid-window end with identical sealed headers, audit
// verdicts, and per-node ledger state digests.
func TestRecoveryFacadeKillRestartEquivalence(t *testing.T) {
	base := t.TempDir()
	oracle := runRecoveryScenario(t, filepath.Join(base, "oracle"), false, 0)
	for i, ok := range oracle.outcomes {
		if !ok {
			t.Fatalf("uninterrupted audit %d reached no consensus — not a usable baseline", i)
		}
	}
	crash := runRecoveryScenario(t, filepath.Join(base, "crash"), true, 0)
	compareRecoveryRuns(t, crash, oracle)
}

// compareRecoveryRuns fails unless a crash run sealed the oracle's
// headers, reached its audit verdicts and ended in its ledger states.
func compareRecoveryRuns(t *testing.T, crash, oracle recoveryRun) {
	t.Helper()
	if len(crash.hashes) != len(oracle.hashes) {
		t.Fatalf("sealed %d blocks, oracle sealed %d", len(crash.hashes), len(oracle.hashes))
	}
	for i := range oracle.hashes {
		if crash.hashes[i] != oracle.hashes[i] {
			t.Errorf("sealed header %d diverged from the uninterrupted run", i)
		}
	}
	for i := range oracle.outcomes {
		if crash.outcomes[i] != oracle.outcomes[i] {
			t.Errorf("audit %d verdict %v, oracle %v", i, crash.outcomes[i], oracle.outcomes[i])
		}
	}
	for id, want := range oracle.states {
		if crash.states[id] != want {
			t.Errorf("node %v ledger state diverged from the uninterrupted run", id)
		}
	}
}

// TestRecoveryFacadeKillRestartOptions runs the kill/restart scenario
// with the seal stage fanned out at GOMAXPROCS 4, and with a compaction
// after every block, and compares each against the one uninterrupted
// oracle of the default run: neither moves a commit window's contents
// or the order in which blocks become durable, so neither may change
// what the cluster converges to.
func TestRecoveryFacadeKillRestartOptions(t *testing.T) {
	base := t.TempDir()
	oracle := runRecoveryScenario(t, filepath.Join(base, "oracle"), false, 0)
	for i, ok := range oracle.outcomes {
		if !ok {
			t.Fatalf("uninterrupted audit %d reached no consensus — not a usable baseline", i)
		}
	}
	for _, tc := range []struct {
		name  string
		every int
		procs int // GOMAXPROCS for the run; 0 leaves it
	}{
		{"workers=4", 0, 4},
		{"compact-every=1", 1, 0},
		{"workers=4, compact-every=1", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				setGOMAXPROCS(t, tc.procs)
			}
			crash := runRecoveryScenario(t, filepath.Join(base, tc.name), true, tc.every)
			compareRecoveryRuns(t, crash, oracle)
		})
	}
}

// TestStateDigestGolden pins Cluster.StateDigest of every node after
// the uninterrupted recovery scenario — blocks, audited headers under
// a trust cap, cache entries — to the values of the checkpoint digest
// (ledger.NodeState.Digest), so a change to what it covers or how shows
// here. (The values differ from the earlier snapshot-v2 stream digest;
// ledger's TestStateDigestMatchesV2 holds the two to the same
// equalities.)
func TestStateDigestGolden(t *testing.T) {
	golden := map[NodeID]string{
		0: "71f07af3f14b4a6bd1b261f81497631f40cd807d2715bde2f6649934d2488cc3",
		1: "60a8511db25891703aabd3570b6c40ad2a187f443d58faabe4d7f199c6551e58",
		2: "33efb182d7886706f71680a33b3aa0e1618372d2ff17d37ffde05a964f560685",
		3: "5ae04ba47bd156826782ea1a5fd50c1e4f88e78cb403260a42eff905f8d464d5",
		4: "0d6a97d068b14c79601fe89cfeb904feb241dd33e97fff0f0a8a2324acad1d4b",
		5: "3d28e42b931d4edeab9ad6e012b9b70b69324c9185739461d0e220083f65bdc2",
		6: "692cc332642674aa4b8669fe6be3cf7da84f9b4f734c7c4c1fd6faa8e0a5662c",
		7: "bd74e0baff721d57e9bfef89054896897a31ee4435e4f0170cfca0f25d227de6",
	}
	run := runRecoveryScenario(t, t.TempDir(), false, 0)
	if len(run.states) != len(golden) {
		t.Fatalf("%d nodes, golden has %d", len(run.states), len(golden))
	}
	for id, d := range run.states {
		if want := golden[id]; d.Hex() != want {
			t.Errorf("node %v: state digest %s, golden %s", id, d.Hex(), want)
		}
	}
}

// TestRecoveryRestartRequiresDataDir: without WithDataDir, Restart is
// meaningless and must say so.
func TestRecoveryRestartRequiresDataDir(t *testing.T) {
	rt, err := New(WithNodes(3), WithSeed(7), WithGamma(1), WithDifficulty(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := rt.(*Cluster)
	if err := rt.Silence(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(1); err == nil {
		t.Fatal("Restart without a data dir succeeded")
	}
}

// TestRecoveryOptionValidation pins the new options' contracts.
func TestRecoveryOptionValidation(t *testing.T) {
	if _, err := New(WithNodes(3), WithSimulator(), WithDataDir(t.TempDir())); err == nil {
		t.Fatal("WithDataDir accepted on the simulator driver")
	}
	if _, err := New(WithNodes(3), WithTrustCap(-1)); err == nil {
		t.Fatal("negative trust cap accepted")
	}
	if _, err := New(WithNodes(3), WithDataDir("")); err == nil {
		t.Fatal("empty data dir accepted")
	}
	// WithTrustCap is valid on both drivers.
	rt, err := New(WithNodes(4), WithSeed(7), WithSimulator(), WithTrustCap(2))
	if err != nil {
		t.Fatalf("WithTrustCap on simulator: %v", err)
	}
	rt.Close()
}

// TestRecoveryTrustCapSurvivesRestart: the cap is recorded in the
// checkpoint, so a restart without reconfiguration keeps the bound.
func TestRecoveryTrustCapSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(
		WithNodes(3), WithSeed(7), WithGamma(1), WithDifficulty(2),
		WithDataDir(dir), WithTrustCap(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := rt.(*Cluster)

	ctx := context.Background()
	for tag := byte(1); tag <= 3; tag++ {
		rt.AdvanceSlot()
		batch := make([]Submission, 0, 3)
		for _, id := range rt.Nodes() {
			batch = append(batch, Submission{Node: id, Data: []byte{tag, byte(id)}})
		}
		if _, err := rt.SubmitBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	// Audits populate H_i on the validator; the cap bounds it.
	if _, err := rt.Audit(ctx, 2, Ref{Node: 0, Seq: 1}); err != nil {
		t.Fatalf("audit: %v", err)
	}
	before, err := c.StateDigest(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Silence(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	after, err := c.StateDigest(2)
	if err != nil {
		t.Fatal(err)
	}
	// The state digest covers the recorded cap, so equality here means
	// the bound itself survived, not just the headers.
	if after != before {
		t.Fatal("trust cap or trust store drifted across restart")
	}
	if err := c.Restart(2); err == nil {
		t.Fatal("Restart of a running node succeeded")
	}
}

// TestRecoveryFacadeCompaction: the facade driver compacts each
// node's WAL at the threshold, so wal.log (and the replay tail a
// restart pays) stays bounded for the life of a run.
func TestRecoveryFacadeCompaction(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(
		WithNodes(3), WithSeed(7), WithGamma(1), WithDifficulty(2),
		WithDataDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := rt.(*Cluster)
	compactEvery(rt, 2)

	ctx := context.Background()
	for tag := byte(1); tag <= 3; tag++ {
		rt.AdvanceSlot()
		for _, id := range rt.Nodes() {
			if _, err := rt.Submit(ctx, id, []byte{tag, byte(id)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three blocks sealed per node with a threshold of two: each WAL
	// rotated at least once, so pending sits below the threshold and a
	// checkpoint exists.
	for _, id := range rt.Nodes() {
		fb := c.devs[id].Backend()
		if p := fb.PendingBlocks(); p >= 2 {
			t.Errorf("node %v: %d pending WAL blocks, threshold 2 never compacted", id, p)
		}
		ckpt := filepath.Join(dir, fmt.Sprintf("node-%d", id), "checkpoint.2ldg")
		if _, err := os.Stat(ckpt); err != nil {
			t.Errorf("node %v: no checkpoint after compaction: %v", id, err)
		}
	}
	// The compacted state restarts byte-identical.
	before, err := c.StateDigest(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Silence(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	after, err := c.StateDigest(1)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("ledger state drifted across a compacted restart")
	}
}

// bounced is what bounceTwice saw: the device, its checkpoint file as
// the first and the second Silence left it, and its state digest before
// each bounce and after the second.
type bounced struct {
	c             *Cluster
	id            NodeID
	first, second os.FileInfo
	digests       [3]Digest
}

// bounceTwice runs a durable cluster through a round of blocks, then
// silences and restarts one device, calls between (nil for no traffic)
// and bounces the device again.
func bounceTwice(t *testing.T, between func(c *Cluster, id NodeID)) bounced {
	t.Helper()
	dir := t.TempDir()
	rt, err := New(WithNodes(4), WithSeed(7), WithGamma(1), WithDifficulty(0), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	b := bounced{c: rt.(*Cluster), id: rt.Nodes()[1]}
	rt.AdvanceSlot()
	var batch []Submission
	for _, n := range rt.Nodes() {
		batch = append(batch, Submission{Node: n, Data: []byte{1, byte(n)}})
	}
	if _, err := rt.SubmitBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	node := filepath.Join(dir, fmt.Sprintf("node-%d", b.id))
	bounce := func(i int) os.FileInfo {
		t.Helper()
		var err error
		if b.digests[i], err = b.c.StateDigest(b.id); err != nil {
			t.Fatal(err)
		}
		if err := b.c.Silence(b.id); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(node, "checkpoint.2ldg"))
		if err != nil {
			t.Fatalf("bounce %d: %v", i, err)
		}
		if _, err := os.Stat(filepath.Join(node, "checkpoint.tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("bounce %d left a checkpoint.tmp: %v", i, err)
		}
		if err := b.c.Restart(b.id); err != nil {
			t.Fatal(err)
		}
		return info
	}
	b.first = bounce(0)
	if between != nil {
		between(b.c, b.id)
	}
	b.second = bounce(1)
	if b.digests[2], err = b.c.StateDigest(b.id); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSilenceWithNothingNewWritesNothing: a device that logged nothing
// since its checkpoint is silenced without a write — the checkpoint file
// the first bounce committed is the one on disk after the second — and
// comes back the same.
func TestSilenceWithNothingNewWritesNothing(t *testing.T) {
	b := bounceTwice(t, nil)
	if !os.SameFile(b.first, b.second) || b.first.Size() != b.second.Size() || !b.first.ModTime().Equal(b.second.ModTime()) {
		t.Fatalf("the second Silence rewrote the checkpoint: %d bytes at %v, then %d bytes at %v (same file %v)",
			b.first.Size(), b.first.ModTime(), b.second.Size(), b.second.ModTime(), os.SameFile(b.first, b.second))
	}
	if b.digests[1] != b.digests[0] || b.digests[2] != b.digests[0] {
		t.Fatalf("state digests %x, %x, %x across two bounces", b.digests[0][:4], b.digests[1][:4], b.digests[2][:4])
	}
}

// TestSilenceWithNewBlockRewritesCheckpoint is the dirty twin: a block
// sealed between the bounces is committed by the second Silence and
// comes back with the Restart.
func TestSilenceWithNewBlockRewritesCheckpoint(t *testing.T) {
	data := []byte("sealed between the bounces")
	var ref Ref
	b := bounceTwice(t, func(c *Cluster, id NodeID) {
		c.AdvanceSlot()
		refs, err := c.SubmitBatch(context.Background(), []Submission{{Node: id, Data: data}})
		if err != nil {
			t.Fatal(err)
		}
		ref = refs[0]
	})
	if os.SameFile(b.first, b.second) {
		t.Fatal("the Silence after a new block left the old checkpoint in place")
	}
	if b.digests[1] == b.digests[0] || b.digests[2] != b.digests[1] {
		t.Fatalf("state digests %x, %x, %x: want a new state that survives the bounce", b.digests[0][:4], b.digests[1][:4], b.digests[2][:4])
	}
	blk, err := b.c.Block(ref)
	if err != nil {
		t.Fatalf("the block sealed between the bounces: %v", err)
	}
	if !bytes.Equal(blk.Body, data) {
		t.Fatalf("the block sealed between the bounces came back with body %q", blk.Body)
	}
}

// TestRecoveryRefusesOversizedBody: a device is the only holder of its
// blocks, so a block its ledger acknowledges but cannot replay is lost.
// A body longer than block.MaxBodyLen — what the block decoder, WAL
// replay and the wire read back — is refused at seal and leaves the
// device as it was; a body of exactly that length is sealed, and a
// reopen of the data dir reads it back with every device's state
// intact.
func TestRecoveryRefusesOversizedBody(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithNodes(4), WithSeed(7), WithGamma(1), WithDifficulty(0), WithDataDir(dir)}
	rt, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := rt.(*Cluster)
	ctx := context.Background()
	rt.AdvanceSlot()
	id := rt.Nodes()[0]
	first, err := rt.Submit(ctx, id, []byte("reading"))
	if err != nil {
		t.Fatal(err)
	}

	before, err := c.StateDigest(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(ctx, id, make([]byte, block.MaxBodyLen+1)); !errors.Is(err, block.ErrBodyTooLarge) {
		t.Fatalf("Submit of a %d-byte body: %v, want ErrBodyTooLarge", block.MaxBodyLen+1, err)
	}
	if after, err := c.StateDigest(id); err != nil || after != before {
		t.Fatalf("a refused seal changed the device's state (err %v)", err)
	}

	body := make([]byte, block.MaxBodyLen)
	for i := range body {
		body[i] = byte(i * 7)
	}
	ref, err := rt.Submit(ctx, id, body)
	if err != nil {
		t.Fatalf("Submit of a MaxBodyLen body: %v", err)
	}
	if ref.Seq != first.Seq+1 {
		t.Fatalf("the seal after a refused one took seq %d, want %d", ref.Seq, first.Seq+1)
	}
	states := make(map[NodeID]Digest)
	for _, n := range rt.Nodes() {
		if states[n], err = c.StateDigest(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	rt, err = New(opts...)
	if err != nil {
		t.Fatalf("reopening the data dir: %v", err)
	}
	defer rt.Close()
	c = rt.(*Cluster)
	got, err := rt.Block(ref)
	if err != nil {
		t.Fatalf("Block(%v) after reopen: %v", ref, err)
	}
	if !bytes.Equal(got.Body, body) {
		t.Fatalf("Block(%v) after reopen: body differs", ref)
	}
	for n, want := range states {
		if d, err := c.StateDigest(n); err != nil || d != want {
			t.Fatalf("node %v: state drifted across the reopen (err %v)", n, err)
		}
	}
}

// compactEvery has a live runtime compact its log once one device has
// n block records in the current generation, in place of
// cluster.DefaultCompactEvery (n <= 0 keeps the default), so a test
// reaches compactions within a few slots. Call it before the first
// Submit.
func compactEvery(rt Runtime, n int) Runtime {
	rt.(*Cluster).seal.CompactEvery = n
	return rt
}

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

// TestRecoveryClusterRefusesLeftoverOwner: a durable Cluster reopened
// without a device that has records in its log — a joiner, which the
// same options do not start again — fails New with ErrWrongOwner,
// naming the joiner, and holds nothing under the dir. Started, it would
// run on a log no compaction could retire while the joiner's records
// are in it.
func TestRecoveryClusterRefusesLeftoverOwner(t *testing.T) {
	dir := t.TempDir()
	openUnder(t, dir)
	opts := append(baseOptions(8, 1), WithDataDir(dir))
	rt, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := rt.Join()
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, rt, 1) // the joiner seals a block of its own
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	rt, err = New(opts...)
	if err == nil {
		_ = rt.Close()
		t.Fatal("New started on a log that holds the records of a device it does not run")
	}
	if !errors.Is(err, ledger.ErrWrongOwner) || !strings.Contains(err.Error(), joiner.String()) {
		t.Fatalf("New without the joiner: %v, want ErrWrongOwner naming %v", err, joiner)
	}
	if open := openUnder(t, dir); len(open) != 0 {
		t.Fatalf("the failed New holds %v open", open)
	}
}

// TestFacadeReleasesDataDir: the live driver holds a device's files
// exactly while the device runs. Silence lets go of everything under
// node-<id>/ and Restart opens its segment again; a Join that fails on
// a damaged checkpoint holds nothing under the joiner's dir; and Close
// holds nothing under the data dir at all.
func TestFacadeReleasesDataDir(t *testing.T) {
	dir := t.TempDir()
	openUnder(t, dir)
	rt, err := New(append(baseOptions(8, 1), WithDataDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := rt.(*Cluster)
	fillBatch(t, rt, 2)
	nodeDir := func(id NodeID) string { return filepath.Join(dir, fmt.Sprintf("node-%d", id)) }

	if err := c.Silence(3); err != nil {
		t.Fatal(err)
	}
	if open := openUnder(t, nodeDir(3)); len(open) != 0 {
		t.Fatalf("silenced node 3 holds %v open", open)
	}
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(nodeDir(3), "blocks.seg")
	if open := openUnder(t, nodeDir(3)); len(open) != 1 || filepath.Base(open[0]) != "blocks.seg" {
		t.Fatalf("restarted node 3 holds %v open, want %s", open, seg)
	}

	ckpt := filepath.Join(nodeDir(8), "checkpoint.2ldg")
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Join(); err == nil {
		t.Fatal("Join over a damaged checkpoint succeeded")
	}
	if open := openUnder(t, nodeDir(8)); len(open) != 0 {
		t.Fatalf("the failed Join holds %v open", open)
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if open := openUnder(t, dir); len(open) != 0 {
		t.Fatalf("the closed runtime holds %v open", open)
	}
}
