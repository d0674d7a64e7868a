// Crash-recovery end to end: real serve processes with -data dirs, one
// SIGKILLed mid-slot — after its block hit the fsync'd WAL, before it
// flushed — and restarted on the same directory. The restarted cluster
// must be indistinguishable from one that never crashed: identical
// sealed header hashes, audit verdicts, and per-node ledger state
// digests (the "state" op — a digest over S_i, H_i, A_i and the trust
// cap: ledger.NodeState.Digest).
package e2e

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/twoldag/twoldag/internal/cluster"
)

// recoveryFlags configure one durable host: the shared e2e world, no
// chaos, a trust cap (so the checkpoint's cap branch rides the whole
// pipeline), and a per-node data dir under base.
func recoveryFlags(base string, id int) []string {
	return []string{
		"-nodes", fmt.Sprint(nodes),
		"-seed", fmt.Sprint(seed),
		"-gamma", fmt.Sprint(gamma),
		"-difficulty", fmt.Sprint(difficulty),
		"-timeout", "1s",
		"-trust-cap", "4",
		"-data", filepath.Join(base, fmt.Sprintf("node-%d", id)),
	}
}

// spawnDurable boots the planned cluster with persistence on.
func spawnDurable(t *testing.T, base string) []*proc {
	t.Helper()
	procs := make([]*proc, nodes)
	procs[0] = spawn(t, append([]string{"serve", "-id", "0"}, recoveryFlags(base, 0)...)...)
	for id := 1; id < nodes; id++ {
		procs[id] = spawn(t, append([]string{
			"serve", "-id", fmt.Sprint(id), "-bootstrap", procs[0].addr,
		}, recoveryFlags(base, id)...)...)
	}
	return procs
}

// recoveryObs is one run's comparable outcome.
type recoveryObs struct {
	hashes   []string // sealed header hashes, submission order
	verdicts []bool   // audit consensus outcomes, request order
	states   []string // per-node ledger state digests, id order
}

// runRecoveryE2E drives the fixed durable workload: two full submit
// slots, a forced compaction on the victim (so its recovery crosses
// segment + checkpoint + WAL, not WAL alone), a third slot in which
// everyone seals — and, when kill is set, the victim is SIGKILLed
// before anyone flushes and a fresh serve process resumes from its
// data dir — then flushes, audits, and a state digest per node. When
// every is positive, each process also compacts right after its seal
// of every every-th slot, where a threshold of every blocks would.
func runRecoveryE2E(t *testing.T, base string, kill bool, every int) recoveryObs {
	t.Helper()
	procs := spawnDurable(t, base)
	var obs recoveryObs
	seal := func(p *proc, slot int) cluster.ControlResponse {
		t.Helper()
		resp := p.mustOK(cluster.ControlRequest{Op: "seal", Data: payload(p.id, slot)})
		if every > 0 && slot%every == 0 {
			p.mustOK(cluster.ControlRequest{Op: "compact"})
		}
		return resp
	}

	submitSlot := func(slot int, members []*proc) {
		t.Helper()
		for _, p := range members {
			p.mustOK(cluster.ControlRequest{Op: "slot", Slot: uint32(slot)})
		}
		type sealed struct {
			p *proc
			d string
		}
		seals := make([]sealed, 0, len(members))
		for _, p := range members {
			resp := seal(p, slot)
			obs.hashes = append(obs.hashes, resp.Digest)
			seals = append(seals, sealed{p, resp.Digest})
		}
		for _, s := range seals {
			s.p.mustOK(cluster.ControlRequest{Op: "flush", Digests: []string{s.d}})
		}
	}
	audit := func(p *proc, ref cluster.ControlRef) {
		t.Helper()
		resp := p.call(cluster.ControlRequest{Op: "audit", Ref: &ref})
		if !resp.OK || resp.Consensus == nil {
			t.Fatalf("proc %d: audit %+v: %s", p.id, ref, resp.Err)
		}
		obs.verdicts = append(obs.verdicts, *resp.Consensus)
	}

	submitSlot(1, procs)
	submitSlot(2, procs)
	procs[victim].mustOK(cluster.ControlRequest{Op: "compact"})

	// Slot 3, by hand: everyone advances and seals, nobody flushes yet —
	// the mid-slot window where the victim's block exists only in its
	// own WAL.
	for _, p := range procs {
		p.mustOK(cluster.ControlRequest{Op: "slot", Slot: 3})
	}
	type sealed struct {
		p *proc
		d string
	}
	seals := make([]sealed, 0, nodes)
	for _, p := range procs {
		resp := seal(p, 3)
		if resp.Ref == nil || resp.Ref.Node != p.id {
			t.Fatalf("proc %d: seal returned ref %+v", p.id, resp.Ref)
		}
		obs.hashes = append(obs.hashes, resp.Digest)
		seals = append(seals, sealed{p, resp.Digest})
	}

	members := procs
	if kill {
		procs[victim].kill()
		restarted := spawn(t, append([]string{
			"serve", "-id", fmt.Sprint(victim), "-bootstrap", procs[0].addr,
		}, recoveryFlags(base, victim)...)...)
		restarted.mustOK(cluster.ControlRequest{Op: "slot", Slot: 3})
		// The sealed-but-unannounced block survived the kill bit for bit.
		latest := restarted.mustOK(cluster.ControlRequest{Op: "latest"})
		if latest.Digest != seals[victim].d {
			t.Fatalf("restarted latest digest %s, sealed %s", latest.Digest, seals[victim].d)
		}
		if latest.Ref == nil || latest.Ref.Node != uint32(victim) || latest.Ref.Seq != 2 {
			t.Fatalf("restarted latest ref %+v, want {%d 2}", latest.Ref, victim)
		}
		members = append([]*proc{}, procs...)
		members[victim] = restarted
		seals[victim].p = restarted
	}

	// Finish the slot: the survivors flush, and (in the kill run) the
	// restarted process re-announces its recovered block — completing
	// the interrupted flush from durable state alone.
	for _, s := range seals {
		s.p.mustOK(cluster.ControlRequest{Op: "flush", Digests: []string{s.d}})
	}

	for _, p := range members {
		p.mustOK(cluster.ControlRequest{Op: "slot", Slot: 4})
	}
	audit(members[1], cluster.ControlRef{Node: 0, Seq: 1})
	audit(members[0], cluster.ControlRef{Node: uint32(victim), Seq: 1})

	for _, p := range members {
		obs.states = append(obs.states, p.mustOK(cluster.ControlRequest{Op: "state"}).Digest)
	}
	for _, p := range members {
		p.leave()
	}
	return obs
}

// TestRecoveryE2EKillRestartEquivalence is the headline crash proof
// with real processes: an uninterrupted durable run and a run whose
// victim is SIGKILLed mid-slot and restarted from disk end with
// identical sealed headers, audit verdicts, and state digests.
func TestRecoveryE2EKillRestartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	base := t.TempDir()
	want := runRecoveryE2E(t, filepath.Join(base, "oracle"), false, 0)
	for i, ok := range want.verdicts {
		if !ok {
			t.Fatalf("uninterrupted audit %d reached no consensus — not a usable baseline", i)
		}
	}
	got := runRecoveryE2E(t, filepath.Join(base, "crash"), true, 0)
	compareRecoveryObs(t, got, want)
}

// compareRecoveryObs requires two runs to be observably identical:
// sealed headers, audit verdicts, per-node state digests.
func compareRecoveryObs(t *testing.T, got, want recoveryObs) {
	t.Helper()
	if len(got.hashes) != len(want.hashes) {
		t.Fatalf("sealed %d blocks, oracle sealed %d", len(got.hashes), len(want.hashes))
	}
	for i := range want.hashes {
		if got.hashes[i] != want.hashes[i] {
			t.Errorf("sealed header %d diverged from the uninterrupted run", i)
		}
	}
	for i := range want.verdicts {
		if got.verdicts[i] != want.verdicts[i] {
			t.Errorf("audit %d: crash run consensus=%v, oracle consensus=%v", i, got.verdicts[i], want.verdicts[i])
		}
	}
	for i := range want.states {
		if got.states[i] != want.states[i] {
			t.Errorf("node %d ledger state diverged from the uninterrupted run", i)
		}
	}
}

// TestRecoveryE2ECompactEvery re-runs the SIGKILL/restart proof with
// compactions between seal and flush — after every block, and after
// every second one — each compared against the one uninterrupted
// oracle, which compacts only at start-up and where the workload asks.
// The victim dies between seal and flush with a compaction just behind
// it or one slot back, and the restarted cluster must still be
// indistinguishable from the oracle: a compaction moves where a block
// is kept, never what is sealed.
func TestRecoveryE2ECompactEvery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	base := t.TempDir()
	want := runRecoveryE2E(t, filepath.Join(base, "oracle"), false, 0)
	for i, ok := range want.verdicts {
		if !ok {
			t.Fatalf("uninterrupted audit %d reached no consensus — not a usable baseline", i)
		}
	}
	for _, every := range []int{1, 2} {
		t.Run(fmt.Sprint("compact-every=", every), func(t *testing.T) {
			got := runRecoveryE2E(t, filepath.Join(base, fmt.Sprint("every-", every)), true, every)
			compareRecoveryObs(t, got, want)
		})
	}
}
