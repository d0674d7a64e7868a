package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/metrics"
	"github.com/twoldag/twoldag/internal/wire"
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
	// flush. Only Seal's own fsync has run.
	_ = hosts[2].dev.node.Close()

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
	st, err := recoverDir(t, killed, b.ID())
	if err != nil {
		t.Fatalf("recovering the killed copy: %v", err)
	}
	if got, ok := st.Cache.Get(a.ID()); !ok || got != d {
		t.Fatalf("A_i of the killed copy holds (%v, %v) for %v, want the acked digest %v", got, ok, a.ID(), d)
	}
}

// recoverDir recovers owner's ledger state, at difficulty 2, from data
// dir dir as a Host lays it out: the dir's log, and owner's segment and
// checkpoint in dir/node-<owner>. Both stay open until the test ends, so
// the state's store can read blocks back from the segment.
func recoverDir(t *testing.T, dir string, owner identity.NodeID) (*ledger.NodeState, error) {
	t.Helper()
	l, err := ledger.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	fb, err := l.OpenBackend(filepath.Join(dir, fmt.Sprintf("node-%d", owner)))
	if err != nil {
		t.Fatal(err)
	}
	p := block.DefaultParams()
	p.Difficulty = 2
	return fb.Recover(ledger.RecoverOptions{Owner: owner, Params: p})
}

// TestStateDigestGolden pins Host.StateDigest of a seeded three-host
// run — two slots sealed and flushed, one audit, so S_i, H_i and A_i
// are all populated — to the values of the checkpoint digest
// (ledger.NodeState.Digest).
func TestStateDigestGolden(t *testing.T) {
	golden := map[identity.NodeID]string{
		0: "c9bb13a118845e3189e0a1fdfeccd4f09f9af28c7274379ff6c28503c1987a67",
		1: "151dfcfe687e0dc7d257f83cf2ddba3dcf50c2af788cf12ef45026e3da1de0da",
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

// TestRecoveryHostKillPoints: a durable single-node host seals across
// three slots and goes down at one of several points — straight after
// its seals, after flushing them, with a compaction inside every seal,
// or through a graceful Close — and restarts from its data dir. Each
// Seal closed its own commit window, so no point loses a block: the
// restarted host holds the state digest the host had, its latest block,
// and seals on from the next sequence number. Sealing is deterministic,
// so that digest is also the one an in-memory host reaches.
func TestRecoveryHostKillPoints(t *testing.T) {
	const seed = 7
	base := Config{ID: 0, Nodes: 1, Seed: seed, Gamma: 0, Difficulty: 2, RequestTimeout: time.Second}
	run := func(t *testing.T, h *Host, flush bool) {
		t.Helper()
		for slot := uint32(1); slot <= 3; slot++ {
			h.SetSlot(slot)
			_, d, err := h.Seal([]byte{byte(slot)})
			if err != nil {
				t.Fatalf("seal slot %d: %v", slot, err)
			}
			if flush {
				if err := h.Flush(context.Background(), []digest.Digest{d}); err != nil {
					t.Fatalf("flush slot %d: %v", slot, err)
				}
			}
		}
	}
	mem, err := Start(base)
	if err != nil {
		t.Fatal(err)
	}
	run(t, mem, false)
	oracle := mem.StateDigest()
	_ = mem.Close()

	for _, tc := range []struct {
		name         string
		compactEvery int
		flush        bool
		graceful     bool
	}{
		{name: "seal"},
		{name: "seal and flush", flush: true},
		{name: "compaction in every seal", compactEvery: 1},
		{name: "graceful close", flush: true, graceful: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.DataDir = t.TempDir()
			h, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h.seal.CompactEvery = tc.compactEvery
			run(t, h, tc.flush)
			before := h.StateDigest()
			if before != oracle {
				t.Fatal("the durable host sealed another state than an in-memory one")
			}
			ref, d, _ := h.Latest()
			if tc.graceful {
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				_ = h.dev.node.Close() // kill: no Leave, no host drain
			}

			h2, err := Start(cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			t.Cleanup(func() { _ = h2.Close() })
			if after := h2.StateDigest(); after != before {
				t.Fatal("state digest changed across the restart")
			}
			if ref2, d2, ok := h2.Latest(); !ok || ref2 != ref || d2 != d {
				t.Fatalf("restarted latest = (%v %v %v), want (%v %v)", ref2, d2, ok, ref, d)
			}
			h2.SetSlot(4)
			next, _, err := h2.Seal([]byte{4})
			if err != nil {
				t.Fatal(err)
			}
			if next.Seq != ref.Seq+1 {
				t.Fatalf("the restarted host sealed seq %d, want %d", next.Seq, ref.Seq+1)
			}
		})
	}
}

// syncFaults fails the next n fsyncs under a data dir's log.
type syncFaults struct {
	mu sync.Mutex
	n  int
}

var errInjected = errors.New("injected fsync failure")

func (f *syncFaults) arm(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n = n
}

func (f *syncFaults) option() ledger.BackendOption {
	return ledger.WithWALFile(func(w ledger.WALFile) ledger.WALFile { return faultySync{w, f} })
}

type faultySync struct {
	ledger.WALFile
	f *syncFaults
}

func (s faultySync) Sync() error {
	s.f.mu.Lock()
	fail := s.f.n > 0
	if fail {
		s.f.n--
	}
	s.f.mu.Unlock()
	if fail {
		return errInjected
	}
	return s.WALFile.Sync()
}

// TestRecoveryHostSealFailedWindowPublishesNothing: Host.Seal is
// write-ahead. A durable host whose next WAL fsync fails returns the
// error from Seal and publishes nothing — its latest block stays put,
// and a peer asking for the child of that block hears NOT_FOUND — and
// once the fault clears, the next Seal takes the same sequence number.
// Every Seal that succeeds has closed a commit window of its own, and a
// restart from the dir after a kill finds the state the host held.
func TestRecoveryHostSealFailedWindowPublishesNothing(t *testing.T) {
	const seed = 13
	faults := &syncFaults{}
	windows := &metrics.EventCounters{}
	dir := t.TempDir()
	hosts := startHosts(t, 2, seed, func(id identity.NodeID, cfg *Config) {
		if id == 0 {
			cfg.DataDir = dir
			cfg.Observer = windows
			cfg.backendOpts = []ledger.BackendOption{faults.option()}
		}
	})
	h, peer := hosts[0], hosts[1]
	seal := func(slot uint32) (block.Ref, digest.Digest, error) {
		t.Helper()
		h.SetSlot(slot)
		before := windows.WALFsyncs()
		ref, d, err := h.Seal([]byte{byte(slot)})
		if err == nil && windows.WALFsyncs() <= before {
			t.Fatalf("Seal of slot %d returned before an fsync covered its block", slot)
		}
		return ref, d, err
	}
	reqChild := func(target digest.Digest) *wire.Message {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		resp, err := peer.dev.node.Call(ctx, h.ID(), func(corr, nonce uint64) *wire.Message {
			return wire.NewReqChild(peer.ID(), h.ID(), target, corr, nonce)
		})
		if err != nil {
			t.Fatalf("REQ_CHILD: %v", err)
		}
		return resp
	}

	ref0, d0, err := seal(1)
	if err != nil {
		t.Fatal(err)
	}
	faults.arm(1)
	if _, _, err := seal(2); !errors.Is(err, errInjected) {
		t.Fatalf("Seal over a failed fsync: %v", err)
	}
	if ref, d, ok := h.Latest(); !ok || ref != ref0 || d != d0 {
		t.Fatalf("latest after the failed Seal = (%v %v %v), want (%v %v)", ref, d, ok, ref0, d0)
	}
	if resp := reqChild(d0); resp.Kind != wire.KindNotFound {
		t.Fatalf("REQ_CHILD for the latest digest answered %v, want NOT_FOUND: the failed block is visible", resp.Kind)
	}

	ref1, d1, err := seal(2)
	if err != nil {
		t.Fatalf("Seal after the fault cleared: %v", err)
	}
	if ref1.Seq != ref0.Seq+1 {
		t.Fatalf("Seal after the failed one took seq %d, want %d", ref1.Seq, ref0.Seq+1)
	}
	resp := reqChild(d0)
	if resp.Kind != wire.KindRpyChild {
		t.Fatalf("REQ_CHILD after the retried Seal answered %v, want RPY_CHILD", resp.Kind)
	}
	if hdr, err := resp.DecodeHeaderPayload(); err != nil || hdr.Hash() != d1 {
		t.Fatalf("REQ_CHILD answered a header other than the retried block's: %v", err)
	}

	want := h.StateDigest()
	_ = h.dev.node.Close() // kill: no Leave, no backend Sync or Close
	restarted, err := Start(Config{
		ID: 0, Nodes: 2, Seed: seed, Gamma: 1, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
		JoinAddr:       peer.Addr(),
		DataDir:        dir,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { _ = restarted.Close() })
	if got := restarted.StateDigest(); got != want {
		t.Fatal("the restarted host's state digest differs from the one the killed host held")
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
	})
	if err != nil {
		t.Fatal(err)
	}
	h.seal.CompactEvery = 4 // exercise compaction concurrently too
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
	st, err := recoverDir(t, dir, 0)
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
