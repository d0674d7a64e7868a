package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology"
)

// TestPoPPaperFig4GreenPath replays Fig. 4: verifying B1 with γ=2 must
// construct the short green path {B1, D1, E2} via WPS.
func TestPoPPaperFig4GreenPath(t *testing.T) {
	l := newLab(t, topology.PaperFig4()) // A=0,B=1,C=2,D=3,E=4
	l.genesisAll()
	// Slot 1: B generates B1, then D (captures B1's digest), then E
	// (captures D1's digest).
	l.runSlot(1, 3, 4)

	v := l.validator(0, 2) // validator A, γ=2
	res, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Consensus {
		t.Fatal("consensus not reached")
	}
	wantNodes := []identity.NodeID{1, 3, 4} // B, D, E
	if len(res.Vouchers) != 3 {
		t.Fatalf("vouchers = %v, want 3 nodes", res.Vouchers)
	}
	for i, id := range wantNodes {
		if res.Vouchers[i] != id {
			t.Fatalf("vouchers = %v, want %v", res.Vouchers, wantNodes)
		}
	}
	if len(res.Path) != 3 {
		t.Fatalf("path length %d, want 3 (green path)", len(res.Path))
	}
	// Prop. 4 floor: at least 2(γ+1) messages with empty H_i.
	if got := res.MessagesSent + res.MessagesReceived; got < 2*(2+1) {
		t.Fatalf("messages = %d, below Prop. 4 bound %d", got, 2*3)
	}
}

// TestPoPMicroLoopPaperFig6 reproduces Fig. 6: with r_B >> r_C, the path
// from B1 to C1 traverses the micro-loop {B2, A2, B3, A3, B4}.
func TestPoPMicroLoopPaperFig6(t *testing.T) {
	l := newLab(t, topology.PaperFig6()) // A=0, B=1, C=2; chain A-B-C
	l.genesisAll()
	// Slots 1..4: B then A generate each slot; C stays silent.
	for s := 0; s < 4; s++ {
		l.runSlot(1, 0)
	}
	// Slot 5: C finally generates C1, holding B4's digest.
	l.runSlot(2)

	v := l.validator(0, 2)
	res, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Consensus {
		t.Fatal("consensus not reached")
	}
	// Expected path: B1 A1 B2 A2 B3 A3 B4 C1 (8 blocks, Fig. 6).
	if len(res.Path) != 8 {
		for _, s := range res.Path {
			t.Logf("path step: %v seq=%d viaTrust=%v", s.Node, s.Header.Seq, s.ViaTrust)
		}
		t.Fatalf("path length %d, want 8", len(res.Path))
	}
	if res.MicroLoopBlocks() != 5 {
		t.Fatalf("micro-loop blocks = %d, want 5 ({B2,A2,B3,A3,B4})", res.MicroLoopBlocks())
	}
	last := res.Path[len(res.Path)-1]
	if last.Node != 2 {
		t.Fatalf("path must terminate at C, got %v", last.Node)
	}
}

// TestPoPDetectsTamperedBody: any mutation of the verifier's stored body
// must fail the Merkle root check (Algorithm 3 lines 3-5).
func TestPoPDetectsTamperedBody(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	l.runSlot(1, 3, 4)

	l.fetcher.InterceptBlock = func(ref block.Ref, b *block.Block, err error) (*block.Block, error) {
		if err == nil && ref.Node == 1 {
			b = b.Clone()     // fetched blocks are shared store state
			b.Body[0] ^= 0xFF // verifier lies about its data
		}
		return b, err
	}
	v := l.validator(0, 2)
	_, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
	if !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("want ErrRootMismatch, got %v", err)
	}
}

// TestPoPDetectsForgedHeader: a verifier re-signing a block under a key
// not in the ring (or with broken PoW) must be rejected.
func TestPoPDetectsForgedHeader(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	l.runSlot(1, 3, 4)
	l.fetcher.InterceptBlock = func(ref block.Ref, b *block.Block, err error) (*block.Block, error) {
		if err == nil {
			b = b.Clone() // fetched blocks are shared store state
			b.Header.Signature[0] ^= 0x01
		}
		return b, err
	}
	v := l.validator(0, 2)
	_, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
	if !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("want ErrInvalidBlock, got %v", err)
	}
}

// TestPoPRejectsSubstitutedBlock: a Byzantine owner answering
// GET_BLOCK(B2) with its older, well-attested B1 must not get B1's
// consensus reported under B2's name — the fetched block has to be the
// one that was asked for.
func TestPoPRejectsSubstitutedBlock(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	l.runSlot(1, 3, 4) // B1, attested by D1 and E1
	l.runSlot(1)       // B2, which nobody has built on
	older, err := l.engines[1].Store().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	l.fetcher.InterceptBlock = func(ref block.Ref, b *block.Block, err error) (*block.Block, error) {
		if err == nil && ref == (block.Ref{Node: 1, Seq: 2}) {
			return older, nil
		}
		return b, err
	}
	res, err := l.validator(0, 2).Verify(context.Background(), block.Ref{Node: 1, Seq: 2}, l.fetcher)
	if !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("want ErrInvalidBlock, got %v (consensus=%v, path=%s)", err, res.Consensus, fmtPath(res))
	}
	if res.Consensus || len(res.Path) != 0 {
		t.Fatalf("substituted block reached the path: consensus=%v path=%s", res.Consensus, fmtPath(res))
	}
	// The honest B1 is still auditable under its own name.
	l.fetcher.InterceptBlock = nil
	if res, err := l.validator(0, 2).Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher); err != nil || !res.Consensus {
		t.Fatalf("honest audit of B1: %v", err)
	}
}

// TestPoPRoutesAroundSilentNode: a malicious node that never answers
// REQ_CHILD is bypassed via other branches (the Fig. 5 behavior).
func TestPoPRoutesAroundSilentNode(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	for s := 0; s < 3; s++ {
		l.runSlot(1, 2, 3, 4, 0) // everyone generates for a rich DAG
	}
	silent := identity.NodeID(3) // D goes silent
	l.fetcher.InterceptChild = func(j identity.NodeID, target digest.Digest, h *block.Header, err error) (*block.Header, error) {
		if j == silent {
			return nil, ErrTimeout
		}
		return h, err
	}
	v := l.validator(0, 2)
	res, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
	if err != nil {
		t.Fatalf("Verify despite silent node: %v", err)
	}
	if !res.Consensus {
		t.Fatal("no consensus despite available honest path")
	}
	for _, id := range res.Vouchers {
		if id == silent {
			t.Fatal("silent node ended up vouching")
		}
	}
	if res.Timeouts == 0 {
		t.Fatal("expected at least one timeout against the silent node")
	}
}

// TestPoPRejectsCorruptedReplies: a responder forging RPY_CHILD headers
// (wrong digest or broken signature) is treated as failed and bypassed.
func TestPoPRejectsCorruptedReplies(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	for s := 0; s < 3; s++ {
		l.runSlot(1, 2, 3, 4, 0)
	}
	evil := identity.NodeID(3)
	l.fetcher.InterceptChild = func(j identity.NodeID, target digest.Digest, h *block.Header, err error) (*block.Header, error) {
		if j == evil && err == nil {
			forged := h.Clone()
			forged.Digests[0].Digest = digest.Sum([]byte("lie"))
			return forged, nil
		}
		return h, err
	}
	v := l.validator(0, 2)
	res, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, id := range res.Vouchers {
		if id == evil {
			t.Fatal("corrupting node accepted as voucher")
		}
	}
}

// rollbackTopology builds the scenario forcing a rollback: A(0)-B(1),
// A-C(2), C-D(3), plus leaves X(4), Y(5) attached to B so WPS prefers B
// first. B's branch dead-ends, forcing a rollback to A and success via
// C then D.
func rollbackTopology(t *testing.T) *topology.Graph {
	g, err := topology.FromEdges(6, [][2]identity.NodeID{
		{0, 1}, {0, 2}, {2, 3}, {1, 4}, {1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPoPRollbackThenSucceed(t *testing.T) {
	l := newLab(t, rollbackTopology(t))
	l.genesisAll()
	// Slot 1: A then B, C, D generate. X, Y never generate again, so
	// B's subtree cannot extend the path past B.
	l.runSlot(0, 1, 2, 3)

	v := l.validator(3, 2) // validator D, γ=2, target A#1
	res, err := v.Verify(context.Background(), block.Ref{Node: 0, Seq: 1}, l.fetcher)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Consensus {
		t.Fatal("consensus not reached after rollback")
	}
	if res.Rollbacks == 0 {
		t.Fatal("expected at least one rollback")
	}
	// Final path must run A -> C -> D.
	nodes := res.PathNodes()
	want := []identity.NodeID{0, 2, 3}
	if len(nodes) != len(want) {
		t.Fatalf("path nodes %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("path nodes %v, want %v", nodes, want)
		}
	}
}

// TestPoPNoConsensusWhenGammaTooLarge: γ+1 beyond the reachable voucher
// count must fail with ErrNoConsensus after exhausting every branch.
func TestPoPNoConsensusWhenGammaTooLarge(t *testing.T) {
	l := newLab(t, topology.PaperFig6()) // 3 nodes only
	l.genesisAll()
	l.runSlot(1, 0)
	l.runSlot(2)

	v := l.validator(0, 3) // needs 4 vouchers, only 3 nodes exist
	_, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
	if !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("want ErrNoConsensus, got %v", err)
	}
}

// TestPoPTrustPathSelection: a second verification of the same block
// must be satisfied from H_i with zero REQ_CHILD traffic (Alg. 2).
func TestPoPTrustPathSelection(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	l.runSlot(1, 3, 4)

	v := l.validator(0, 2)
	ref := block.Ref{Node: 1, Seq: 1}
	first, err := v.Verify(context.Background(), ref, l.fetcher)
	if err != nil || !first.Consensus {
		t.Fatalf("first verify: %v / %+v", err, first)
	}
	second, err := v.Verify(context.Background(), ref, l.fetcher)
	if err != nil || !second.Consensus {
		t.Fatalf("second verify: %v", err)
	}
	if second.MessagesSent != 1 {
		// Only the initial block retrieval is allowed.
		t.Fatalf("second verify sent %d messages, want 1 (TPS should serve the rest)", second.MessagesSent)
	}
	if second.TrustHits == 0 {
		t.Fatal("second verify had no trust hits")
	}
	if second.HeadersFetched != 0 {
		t.Fatalf("second verify fetched %d headers over the network", second.HeadersFetched)
	}
}

// TestPoPTrustStoreDoesNotPinFetchedBody: a target decoded off the
// wire arrives as a block nobody else holds, its header embedded in it.
// H_i must store a detached copy of that header — keeping the embedded
// one would keep the target's whole body reachable from the validator —
// while a fully sealed target (shared store state) stays shared.
func TestPoPTrustStoreDoesNotPinFetchedBody(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	l.runSlot(1, 3, 4)
	ref := block.Ref{Node: 1, Seq: 1}

	var fetched *block.Block
	l.fetcher.InterceptBlock = func(_ block.Ref, b *block.Block, err error) (*block.Block, error) {
		if err != nil {
			return nil, err
		}
		fetched, err = block.Decode(block.Encode(b))
		return fetched, err
	}
	res, err := l.validator(0, 2).Verify(context.Background(), ref, l.fetcher)
	if err != nil || !res.Consensus {
		t.Fatalf("verify: %v / %+v", err, res)
	}
	hh := fetched.Header.Hash()
	got, ok := l.engines[0].Trust().Get(hh)
	if !ok {
		t.Fatal("target header not cached")
	}
	if got == &fetched.Header {
		t.Fatal("H_i stores the header embedded in the fetched block, pinning its body")
	}
	if !got.Sealed() || got.Hash() != hh {
		t.Fatal("detached header is not the sealed target header")
	}

	l.fetcher.InterceptBlock = nil
	stored, err := l.engines[1].Store().Get(ref.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.validator(2, 2).Verify(context.Background(), ref, l.fetcher); err != nil {
		t.Fatal(err)
	}
	if got, _ := l.engines[2].Trust().Get(hh); got != &stored.Header {
		t.Fatal("fully sealed target header was copied instead of shared")
	}
}

// TestPoPTrustStoreDisabled: without H_i every verification pays full
// network cost (the ABL-TPS ablation baseline).
func TestPoPTrustStoreDisabled(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	l.runSlot(1, 3, 4)

	noTrust := func(cfg *ValidatorConfig) { cfg.Trust = nil }
	v := l.validator(0, 2, noTrust)
	ref := block.Ref{Node: 1, Seq: 1}
	first, err := v.Verify(context.Background(), ref, l.fetcher)
	if err != nil {
		t.Fatal(err)
	}
	second, err := v.Verify(context.Background(), ref, l.fetcher)
	if err != nil {
		t.Fatal(err)
	}
	if second.TrustHits != 0 {
		t.Fatal("trust hits without a trust store")
	}
	if second.MessagesSent != first.MessagesSent {
		t.Fatalf("without H_i repeat cost %d != first cost %d", second.MessagesSent, first.MessagesSent)
	}
}

// TestPoPProp4MessageFloor checks Prop. 4: with empty H_i a validator
// exchanges at least 2(γ+1) messages to reach consensus.
func TestPoPProp4MessageFloor(t *testing.T) {
	for gamma := 0; gamma <= 3; gamma++ {
		g, err := topology.Line(6)
		if err != nil {
			t.Fatal(err)
		}
		l := newLab(t, g)
		l.genesisAll()
		for s := 0; s < 6; s++ {
			l.runSlot(0, 1, 2, 3, 4, 5)
		}
		v := l.validator(5, gamma, func(cfg *ValidatorConfig) { cfg.Trust = nil })
		res, err := v.Verify(context.Background(), block.Ref{Node: 0, Seq: 1}, l.fetcher)
		if err != nil {
			t.Fatalf("gamma=%d: %v", gamma, err)
		}
		if got := res.MessagesSent + res.MessagesReceived; got < 2*(gamma+1) {
			t.Fatalf("gamma=%d: %d messages, below Prop. 4 floor %d", gamma, got, 2*(gamma+1))
		}
	}
}

// TestPoPAlternativeStrategies: RandomSelection and ShortestPathFirst
// must also reach consensus on a healthy network.
func TestPoPAlternativeStrategies(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy SelectionStrategy
	}{
		{"random", RandomSelection{}},
		{"shortest-path-first", ShortestPathFirst{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLab(t, topology.PaperFig4())
			l.genesisAll()
			for s := 0; s < 3; s++ {
				l.runSlot(1, 2, 3, 4, 0)
			}
			v := l.validator(0, 2, func(cfg *ValidatorConfig) { cfg.Strategy = tc.strategy })
			res, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: 1}, l.fetcher)
			if err != nil || !res.Consensus {
				t.Fatalf("strategy %s failed: %v", tc.name, err)
			}
		})
	}
}

// TestPoPBlacklistSkipsBannedNodes: after enough failures the silent
// node is banned and no longer probed at all.
func TestPoPBlacklistSkipsBannedNodes(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	for s := 0; s < 5; s++ {
		l.runSlot(1, 2, 3, 4, 0)
	}
	silent := identity.NodeID(3)
	l.fetcher.InterceptChild = func(j identity.NodeID, target digest.Digest, h *block.Header, err error) (*block.Header, error) {
		if j == silent {
			return nil, ErrTimeout
		}
		return h, err
	}
	eng := l.engines[0]
	bl := ledger.NewBlacklist(2, 100)
	v, err := eng.Validator(2, l.ring, func(cfg *ValidatorConfig) { cfg.Blacklist = bl })
	if err != nil {
		t.Fatal(err)
	}
	// Run several verifications; the silent node accumulates strikes.
	for seq := uint32(1); seq <= 3; seq++ {
		if _, err := v.Verify(context.Background(), block.Ref{Node: 1, Seq: seq}, l.fetcher); err != nil {
			t.Fatalf("verify #%d: %v", seq, err)
		}
	}
	if !bl.Banned(silent) {
		t.Fatal("silent node never banned")
	}
	// Once banned, a fresh verification must not probe it at all.
	probed := false
	l.fetcher.InterceptChild = func(j identity.NodeID, target digest.Digest, h *block.Header, err error) (*block.Header, error) {
		if j == silent {
			probed = true
		}
		return h, err
	}
	if _, err := v.Verify(context.Background(), block.Ref{Node: 2, Seq: 1}, l.fetcher); err != nil {
		t.Fatal(err)
	}
	if probed {
		t.Fatal("banned node was still probed")
	}
}

// TestPoPContextCancellation: a canceled context aborts verification.
func TestPoPContextCancellation(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	l.runSlot(1, 3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := l.validator(0, 2)
	if _, err := v.Verify(ctx, block.Ref{Node: 1, Seq: 1}, l.fetcher); err == nil {
		t.Fatal("canceled context did not abort")
	}
}

// TestPoPUnreachableVerifier: fetching the target from an unknown node
// fails cleanly.
func TestPoPUnreachableVerifier(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	v := l.validator(0, 1)
	if _, err := v.Verify(context.Background(), block.Ref{Node: 99, Seq: 0}, l.fetcher); err == nil {
		t.Fatal("verification against unknown node succeeded")
	}
}

// TestValidatorConfigValidation covers constructor errors.
func TestValidatorConfigValidation(t *testing.T) {
	g := topology.PaperFig3()
	ring := identity.NewRing()
	if _, err := NewValidator(ValidatorConfig{Topo: g}); err == nil {
		t.Fatal("missing ring accepted")
	}
	if _, err := NewValidator(ValidatorConfig{Ring: ring}); err == nil {
		t.Fatal("missing topology accepted")
	}
	if _, err := NewValidator(ValidatorConfig{Ring: ring, Topo: g, Gamma: -1}); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

// TestResponderAlgorithm4 covers the responder in isolation.
func TestResponderAlgorithm4(t *testing.T) {
	l := newLab(t, topology.PaperFig6())
	l.genesisAll()
	for s := 0; s < 3; s++ {
		l.runSlot(1, 0) // B then A each slot
	}
	b1, err := l.engines[1].Store().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	// A's oldest child of B1 must be A1 (seq 1), not a later block.
	resp := l.engines[0].Responder()
	child, err := resp.ChildFor(b1.Header.Hash())
	if err != nil {
		t.Fatalf("ChildFor: %v", err)
	}
	if child.Origin != 0 || child.Seq != 1 {
		t.Fatalf("oldest child = %v#%d, want n0#1", child.Origin, child.Seq)
	}
	if _, err := resp.ChildFor(digest.Sum([]byte("unknown"))); !errors.Is(err, ErrNoChild) {
		t.Fatalf("want ErrNoChild, got %v", err)
	}
	if _, err := resp.Block(block.Ref{Node: 0, Seq: 0}); err != nil {
		t.Fatalf("Block: %v", err)
	}
	if _, err := resp.Block(block.Ref{Node: 1, Seq: 0}); err == nil {
		t.Fatal("responder served a foreign block")
	}
}

// TestEngineRejectsNonNeighborDigest enforces Sec. IV-D5 filtering.
func TestEngineRejectsNonNeighborDigest(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	err := l.engines[0].OnDigest(4, digest.Sum([]byte("x"))) // E is not A's neighbor
	if !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("want ErrNotNeighbor, got %v", err)
	}
}

// TestEngineChaining: consecutive blocks link via PrevDigest and carry
// fresh neighbor digests.
func TestEngineChaining(t *testing.T) {
	l := newLab(t, topology.PaperFig3())
	l.genesisAll()
	l.runSlot(3, 2, 1, 0) // D, C, B, A — the Fig. 3 generation order
	bStore := l.engines[1].Store()
	b1, err := bStore.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := bStore.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Header.PrevDigest() != b0.Header.Hash() {
		t.Fatal("chain link broken")
	}
	// Fig. 3: B1 must contain the digests of A0?, C1 and D1 — in our
	// slot order D and C generated before B in slot 1, so B1 holds
	// D1's and C1's digests; A generates after B, so B1 holds A0's.
	d1, err := l.engines[3].Store().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := b1.Header.DigestOf(3); !ok || got != d1.Header.Hash() {
		t.Fatal("B1 does not reference D1")
	}
	a0, err := l.engines[0].Store().Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := b1.Header.DigestOf(0); !ok || got != a0.Header.Hash() {
		t.Fatal("B1 does not reference A0")
	}
}

// TestEngineConstructorValidation covers engine construction errors.
func TestEngineConstructorValidation(t *testing.T) {
	g := topology.PaperFig3()
	key := identity.Deterministic(99, 1) // not in topology
	if _, err := NewEngine(key, block.DefaultParams(), g); err == nil {
		t.Fatal("engine accepted node outside topology")
	}
	if _, err := NewEngine(key, block.DefaultParams(), nil); err == nil {
		t.Fatal("engine accepted nil topology")
	}
}

// TestStoreFetcherDynamicMembership: removing a store makes the node
// unreachable; re-registering restores it.
func TestStoreFetcherDynamicMembership(t *testing.T) {
	l := newLab(t, topology.PaperFig4())
	l.genesisAll()
	ctx := context.Background()
	ref := block.Ref{Node: 2, Seq: 0}
	if _, err := l.fetcher.FetchBlock(ctx, ref); err != nil {
		t.Fatalf("fetch before removal: %v", err)
	}
	l.fetcher.Remove(2)
	if _, err := l.fetcher.FetchBlock(ctx, ref); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout after removal, got %v", err)
	}
	l.fetcher.Register(2, l.engines[2].Store())
	if _, err := l.fetcher.FetchBlock(ctx, ref); err != nil {
		t.Fatalf("fetch after re-register: %v", err)
	}
}

func fmtPath(res *Result) string {
	s := ""
	for _, st := range res.Path {
		s += fmt.Sprintf("%v#%d ", st.Node, st.Header.Seq)
	}
	return s
}
