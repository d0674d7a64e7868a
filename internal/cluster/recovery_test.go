package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
)

// recoveryWorkload drives one deterministic slot across hosts: every
// host seals its block first (phase split), then every host flushes.
func recoveryWorkload(t *testing.T, hosts []*Host, slot uint32) {
	t.Helper()
	for _, h := range hosts {
		h.SetSlot(slot)
	}
	type sealed struct {
		h *Host
		d digest.Digest
	}
	var flushes []sealed
	for _, h := range hosts {
		_, d, err := h.Seal([]byte{byte(slot), byte(h.ID())})
		if err != nil {
			t.Fatalf("seal slot %d on %v: %v", slot, h.ID(), err)
		}
		flushes = append(flushes, sealed{h, d})
	}
	for _, f := range flushes {
		if err := f.h.Flush(context.Background(), []digest.Digest{f.d}); err != nil {
			t.Fatalf("flush slot %d on %v: %v", slot, f.h.ID(), err)
		}
	}
}

// recoveryOutcome captures everything the equivalence check compares:
// each node's canonical ledger digest and a subsequent audit verdict.
type recoveryOutcome struct {
	states    map[identity.NodeID]digest.Digest
	consensus bool
	vouchers  int
}

// observeOutcome audits block {0,0} from host 1 and snapshots every
// host's state digest (after the audit, so trust-store growth from the
// audit itself is part of the comparison).
func observeOutcome(t *testing.T, hosts []*Host) recoveryOutcome {
	t.Helper()
	res, err := hosts[1].Audit(context.Background(), block.Ref{Node: 0, Seq: 0})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	out := recoveryOutcome{states: make(map[identity.NodeID]digest.Digest)}
	out.consensus = res.Consensus
	out.vouchers = len(res.Vouchers)
	for _, h := range hosts {
		out.states[h.ID()] = h.StateDigest()
	}
	return out
}

// TestRecoveryKillRestartEquivalence is the headline crash proof at the
// host level: two identical three-node clusters run the same workload;
// in one of them node 2 is killed mid-slot — after its block hit the
// WAL, before it announced — and restarted from its data dir. The
// restarted cluster must end identical to the uninterrupted one: every
// node's (S_i, H_i, A_i) state digest and the outcome of a subsequent
// audit.
func TestRecoveryKillRestartEquivalence(t *testing.T) {
	const seed = 13
	base := t.TempDir()
	dirs := func(run string) func(id identity.NodeID, cfg *Config) {
		return func(id identity.NodeID, cfg *Config) {
			cfg.DataDir = filepath.Join(base, run, fmt.Sprintf("node-%d", id))
		}
	}

	// Uninterrupted oracle run.
	oracle := startHosts(t, 3, seed, dirs("oracle"))
	recoveryWorkload(t, oracle, 1)
	recoveryWorkload(t, oracle, 2)
	want := observeOutcome(t, oracle)

	// Crash run: slot 1 completes, then in slot 2 every host seals but
	// node 2 dies before flushing — the mid-slot window where its block
	// is fsync'd in the WAL and nowhere else.
	hosts := startHosts(t, 3, seed, dirs("crash"))
	recoveryWorkload(t, hosts, 1)
	for _, h := range hosts {
		h.SetSlot(2)
	}
	var ds [3]digest.Digest
	var refs [3]block.Ref
	for i, h := range hosts {
		ref, d, err := h.Seal([]byte{2, byte(h.ID())})
		if err != nil {
			t.Fatalf("seal on %v: %v", h.ID(), err)
		}
		refs[i], ds[i] = ref, d
	}
	// Kill: the node goes down with no Leave, no backend Sync, no
	// flush. Only LogBlock's own fsync has run.
	_ = hosts[2].node.Close()

	// Restart from the same data dir, re-discovering the cluster
	// through host 0.
	restarted, err := Start(Config{
		ID: 2, Nodes: 3, Seed: seed, Gamma: 1, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
		JoinAddr:       hosts[0].Addr(),
		DataDir:        filepath.Join(base, "crash", "node-2"),
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { _ = restarted.Close() })
	restarted.SetSlot(2)

	// The sealed-but-unannounced block survived the kill.
	ref, d, ok := restarted.Latest()
	if !ok || ref != refs[2] || d != ds[2] {
		t.Fatalf("restarted latest = (%v %v %v), want (%v %v)", ref, d, ok, refs[2], ds[2])
	}

	// Finish the slot: the survivors flush, and the restarted node
	// re-announces its recovered block — the driver-level completion of
	// the interrupted flush.
	for i, h := range []*Host{hosts[0], hosts[1], restarted} {
		if err := h.Flush(context.Background(), []digest.Digest{ds[i]}); err != nil {
			t.Fatalf("flush on %v: %v", h.ID(), err)
		}
	}

	got := observeOutcome(t, []*Host{hosts[0], hosts[1], restarted})
	if got.consensus != want.consensus || got.vouchers != want.vouchers {
		t.Fatalf("audit after recovery = (%v, %d vouchers), oracle (%v, %d)",
			got.consensus, got.vouchers, want.consensus, want.vouchers)
	}
	for id, w := range want.states {
		if got.states[id] != w {
			t.Fatalf("node %v state digest diverged after crash recovery", id)
		}
	}
}

// TestRecoveryHostAckedDigestSurvivesKill: a Host's wire-level
// DigestAck outlives the Host, so the digest record it vouches for must
// be in the kernel before the ack leaves — the log buffers such records
// otherwise. A announces a digest and sees B's ack; B's data dir is then
// copied as a SIGKILL leaves it (no Sync, no Close), and B recovered
// from the copy must hold the digest in A_i.
func TestRecoveryHostAckedDigestSurvivesKill(t *testing.T) {
	base := t.TempDir()
	hosts := startHosts(t, 2, 13, func(id identity.NodeID, cfg *Config) {
		cfg.DataDir = filepath.Join(base, fmt.Sprintf("node-%d", id))
	})
	a, b := hosts[0], hosts[1]
	if !a.Topology().IsNeighbor(a.ID(), b.ID()) {
		t.Fatal("the fixture's two devices are not radio neighbours")
	}
	a.SetSlot(1)
	_, d, err := a.Seal([]byte("acked"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(context.Background(), []digest.Digest{d}); err != nil {
		t.Fatalf("flush: %v", err) // returns once B's ack arrived
	}
	killed := filepath.Join(t.TempDir(), "node-1")
	if err := os.CopyFS(killed, os.DirFS(filepath.Join(base, "node-1"))); err != nil {
		t.Fatal(err)
	}
	fb, err := ledger.OpenFileBackend(killed)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	p := block.DefaultParams()
	p.Difficulty = 2
	st, err := fb.Recover(ledger.RecoverOptions{Owner: b.ID(), Params: p})
	if err != nil {
		t.Fatalf("recovering the killed copy: %v", err)
	}
	if got, ok := st.Cache.Get(a.ID()); !ok || got != d {
		t.Fatalf("A_i of the killed copy holds (%v, %v) for %v, want the acked digest %v", got, ok, a.ID(), d)
	}
}

// TestStateDigestGolden pins Host.StateDigest of a seeded three-host
// run — two slots sealed and flushed, one audit, so S_i, H_i and A_i
// are all populated — to the values of the checkpoint digest
// (ledger.NodeState.Digest).
func TestStateDigestGolden(t *testing.T) {
	golden := map[identity.NodeID]string{
		0: "c9bb13a118845e3189e0a1fdfeccd4f09f9af28c7274379ff6c28503c1987a67",
		1: "a235d9fce3fdcb2264ea01a2acef0cbc1bf7204a9347ce2f5255cf4c9951bcef",
		2: "57f03a5179d07db7b0a475139fa3f3e506381264f2c19ac27b8a5213e6ed8c8c",
	}
	hosts := startHosts(t, 3, 13, nil)
	recoveryWorkload(t, hosts, 1)
	recoveryWorkload(t, hosts, 2)
	out := observeOutcome(t, hosts)
	if !out.consensus {
		t.Fatal("audit reached no consensus: H_i would be empty")
	}
	for id, want := range golden {
		if got := out.states[id].Hex(); got != want {
			t.Errorf("host %v: state digest %s, golden %s", id, got, want)
		}
	}
}

// TestRecoverySyncPolicies proves kill/restart equivalence under every
// commit-window discipline at the host level: a durable single-node
// host seals and flushes across three slots, dies without Leave or any
// graceful host shutdown, and restarts from its data dir. The state
// digest must survive the kill unchanged and — because sealing is
// deterministic — be identical across all three policies: the flush
// boundary is SyncBatch's commit point, the ticker SyncInterval's, and
// the backend close commits whatever is still staged.
func TestRecoverySyncPolicies(t *testing.T) {
	digests := make(map[string]digest.Digest)
	for _, tc := range []struct {
		name   string
		policy ledger.SyncPolicy
	}{
		{"always", ledger.SyncAlways()},
		{"batch", ledger.SyncBatch()},
		{"interval", ledger.SyncInterval(5 * time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2,
				RequestTimeout: time.Second,
				DataDir:        dir,
				Sync:           tc.policy,
			}
			h, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for slot := uint32(1); slot <= 3; slot++ {
				h.SetSlot(slot)
				_, d, err := h.Seal([]byte{byte(slot)})
				if err != nil {
					t.Fatalf("seal slot %d: %v", slot, err)
				}
				if err := h.Flush(context.Background(), []digest.Digest{d}); err != nil {
					t.Fatalf("flush slot %d: %v", slot, err)
				}
			}
			before := h.StateDigest()
			// Kill: close the node directly — no Leave, no host drain.
			_ = h.node.Close()

			h2, err := Start(cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			t.Cleanup(func() { _ = h2.Close() })
			if after := h2.StateDigest(); after != before {
				t.Fatalf("state digest changed across kill + restart under %s", tc.name)
			}
			digests[tc.name] = before
		})
	}
	if digests["batch"] != digests["always"] || digests["interval"] != digests["always"] {
		t.Fatalf("state digests diverged across sync policies: %v", digests)
	}
}

// TestRecoverySyncPolicyValidation pins the host-level config contract:
// a malformed interval fails Start, and a batched or interval policy
// without a data dir is meaningless (there is no WAL to commit).
func TestRecoverySyncPolicyValidation(t *testing.T) {
	base := Config{ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2, RequestTimeout: time.Second}

	bad := base
	bad.DataDir = t.TempDir()
	bad.Sync = ledger.SyncInterval(-time.Second)
	if _, err := Start(bad); err == nil {
		t.Fatal("negative sync interval accepted")
	}
	memOnly := base
	memOnly.Sync = ledger.SyncBatch()
	if _, err := Start(memOnly); err == nil {
		t.Fatal("batched sync policy accepted without a data dir")
	}
}

// TestRecoveryCloseMidAppend races Close against a stream of Seals on
// a durable host (mirroring TestHostCloseMidRetry for the backend
// path) and then proves the durability contract: every Seal that
// reported success is recoverable from the data dir, bit for bit.
func TestRecoveryCloseMidAppend(t *testing.T) {
	dir := t.TempDir()
	h, err := Start(Config{
		ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2,
		RequestTimeout: time.Second,
		DataDir:        dir,
		CompactEvery:   4, // exercise compaction concurrently too
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SetSlot(1)

	type acked struct {
		ref block.Ref
		d   digest.Digest
	}
	sealed := make(chan acked, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			ref, d, err := h.Seal([]byte{byte(i)})
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("seal: %v", err)
				}
				return
			}
			sealed <- acked{ref, d}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := h.Close(); err != nil {
		t.Fatalf("close mid-append: %v", err)
	}
	<-done
	close(sealed)

	var accepted []acked
	for a := range sealed {
		accepted = append(accepted, a)
	}
	if len(accepted) == 0 {
		t.Fatal("no seals completed before close; nothing proven")
	}

	// Reopen the data dir: every acknowledged block must be there.
	fb, err := ledger.OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	p := block.DefaultParams()
	p.Difficulty = 2
	st, err := fb.Recover(ledger.RecoverOptions{Owner: 0, Params: p})
	if err != nil {
		t.Fatalf("recover after close: %v", err)
	}
	if st.Store.Len() != len(accepted) {
		t.Fatalf("recovered %d blocks, %d were acknowledged", st.Store.Len(), len(accepted))
	}
	for _, a := range accepted {
		b, err := st.Store.Get(a.ref.Seq)
		if err != nil {
			t.Fatalf("acknowledged block %v missing: %v", a.ref, err)
		}
		if b.Header.Hash() != a.d {
			t.Fatalf("block %v digest drifted across recovery", a.ref)
		}
	}
}
