package twoldag

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The facade recovery suite: with WithDataDir every device's ledger is
// durable, and a device killed and restarted from its data dir must be
// byte-identical to one that never went down. The probe is
// Cluster.StateDigest — a digest over the snapshot-v2 serialization of
// (S_i, H_i, A_i, trust cap) — so "equivalent" means every block,
// trust header (in insertion order), cache entry and the cap itself.

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
// with its recovery byte-checked against its pre-kill state. extra
// options (e.g. WithSyncPolicy) ride on top of the fixed world.
func runRecoveryScenario(t *testing.T, dataDir string, kill bool, extra ...Option) recoveryRun {
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
	oracle := runRecoveryScenario(t, filepath.Join(base, "oracle"), false)
	for i, ok := range oracle.outcomes {
		if !ok {
			t.Fatalf("uninterrupted audit %d reached no consensus — not a usable baseline", i)
		}
	}
	crash := runRecoveryScenario(t, filepath.Join(base, "crash"), true)

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

// TestRecoveryFacadeSyncPolicies runs the kill/restart scenario under
// every commit-window discipline and compares each against one
// uninterrupted SyncAlways oracle. Sealing is deterministic, so the
// final ledger states are policy-independent: whatever a policy defers,
// the flush boundary (SyncBatch), the ticker (SyncInterval) or the
// backend's shutdown commit makes durable before the kill — group
// commit changes when records are acknowledged, never what the cluster
// converges to.
func TestRecoveryFacadeSyncPolicies(t *testing.T) {
	base := t.TempDir()
	oracle := runRecoveryScenario(t, filepath.Join(base, "oracle"), false)
	for i, ok := range oracle.outcomes {
		if !ok {
			t.Fatalf("uninterrupted audit %d reached no consensus — not a usable baseline", i)
		}
	}
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
	}{
		{"always", SyncAlways()},
		{"batch", SyncBatch()},
		{"interval", SyncInterval(10 * time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crash := runRecoveryScenario(t, filepath.Join(base, tc.name), true, WithSyncPolicy(tc.policy))
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
		})
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
	// Sync policies: a malformed interval fails at the option, a
	// non-default policy needs a durable dir, and the simulator (which
	// has no WAL) rejects anything but the default.
	if _, err := New(WithNodes(3), WithDataDir(t.TempDir()), WithSyncPolicy(SyncInterval(-time.Second))); err == nil {
		t.Fatal("negative sync interval accepted")
	}
	if _, err := New(WithNodes(3), WithSyncPolicy(SyncBatch())); err == nil {
		t.Fatal("WithSyncPolicy(batch) accepted without WithDataDir")
	}
	if _, err := New(WithNodes(3), WithSimulator(), WithSyncPolicy(SyncBatch())); err == nil {
		t.Fatal("WithSyncPolicy accepted on the simulator driver")
	}
}

// TestRecoveryTrustCapSurvivesRestart: the cap is recorded in the
// snapshot, so a restart without reconfiguration keeps the bound.
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
// node's WAL at the configured threshold, so wal.log (and the replay
// tail a restart pays) stays bounded for the life of a run.
func TestRecoveryFacadeCompaction(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(
		WithNodes(3), WithSeed(7), WithGamma(1), WithDifficulty(2),
		WithDataDir(dir), WithCompactEvery(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := rt.(*Cluster)

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
	// snapshot exists.
	for _, id := range rt.Nodes() {
		fb := c.backends[id]
		if p := fb.PendingBlocks(); p >= 2 {
			t.Errorf("node %v: %d pending WAL blocks, threshold 2 never compacted", id, p)
		}
		snap := filepath.Join(dir, fmt.Sprintf("node-%d", id), "snapshot.2ldg")
		if _, err := os.Stat(snap); err != nil {
			t.Errorf("node %v: no snapshot after compaction: %v", id, err)
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

// TestRecoveryCompactEveryValidation pins WithCompactEvery's contract.
func TestRecoveryCompactEveryValidation(t *testing.T) {
	if _, err := New(WithNodes(3), WithCompactEvery(0)); err == nil {
		t.Fatal("WithCompactEvery(0) accepted")
	}
	if _, err := New(WithNodes(3), WithCompactEvery(4)); err == nil {
		t.Fatal("WithCompactEvery accepted without WithDataDir")
	}
	if _, err := New(WithNodes(3), WithSimulator(), WithCompactEvery(4)); err == nil {
		t.Fatal("WithCompactEvery accepted on the simulator driver")
	}
}
