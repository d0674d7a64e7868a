package ledger

import (
	"bytes"
	"errors"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// populatedState builds a node state with blocks, trust headers from a
// neighbor, digest-cache entries, and the given cap — a representative
// cut of everything snapshot v2 must carry.
func populatedState(t *testing.T, trustCap int) *NodeState {
	t.Helper()
	st := NewNodeState(4, trustCap)
	key := identity.Deterministic(4, 4)
	for _, b := range chainFor(t, key, 4, nil) {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	nb := identity.Deterministic(9, 4)
	for _, b := range chainFor(t, nb, 3, nil) {
		st.Trust.Add(b.Header.Clone())
	}
	st.Cache.Update(9, digest.Sum([]byte("nine")))
	st.Cache.Update(2, digest.Sum([]byte("two")))
	return st
}

func stateOpts() RecoverOptions {
	return RecoverOptions{Owner: 4, Params: testParams()}
}

// stateBytes serializes st as a v2 snapshot — also the byte-identity
// probe the equivalence tests use.
func stateBytes(t *testing.T, st *NodeState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotV2RoundTrip(t *testing.T) {
	st := populatedState(t, 0)
	raw := stateBytes(t, st)
	got, err := ReadSnapshotState(raw, stateOpts())
	if err != nil {
		t.Fatalf("ReadSnapshotState: %v", err)
	}
	// Byte-identity is the real contract: re-serializing the restored
	// state must reproduce the stream exactly (insertion order of H_i,
	// node order of A_i, every seal intact).
	if !bytes.Equal(stateBytes(t, got), raw) {
		t.Fatal("restored state re-serializes differently")
	}
	if got.Store.Len() != 4 || got.Trust.Len() != 3 || got.Cache.Len() != 2 {
		t.Fatalf("restored sizes: %d blocks, %d headers, %d entries",
			got.Store.Len(), got.Trust.Len(), got.Cache.Len())
	}
	b, _ := got.Store.Get(0)
	if !b.Sealed() {
		t.Fatal("restored block not fully sealed")
	}
	if d, ok := got.Cache.Get(9); !ok || d != digest.Sum([]byte("nine")) {
		t.Fatal("cache entry lost")
	}
}

// TestSnapshotV2TrustCap: the recorded cap restores by default; a
// positive RecoverOptions.TrustCap overrides it (redeployment wins).
func TestSnapshotV2TrustCap(t *testing.T) {
	st := populatedState(t, 5)
	raw := stateBytes(t, st)

	got, err := ReadSnapshotState(raw, stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.TrustCap != 5 || got.Trust.Cap() != 5 {
		t.Fatalf("recorded cap not adopted: %d/%d", got.TrustCap, got.Trust.Cap())
	}

	opts := stateOpts()
	opts.TrustCap = 2
	got, err = ReadSnapshotState(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrustCap != 2 || got.Trust.Cap() != 2 {
		t.Fatalf("override cap not applied: %d/%d", got.TrustCap, got.Trust.Cap())
	}
	// The cap was in force during the restore: only the 2 newest of the
	// 3 recorded headers survive, FIFO order preserved.
	if got.Trust.Len() != 2 {
		t.Fatalf("capped restore kept %d headers", got.Trust.Len())
	}

	// A capped store that has already evicted restores to the same
	// chain heads: keep adding past the cap on the original and on the
	// restored copy, and every ChildOf answer and the snapshot bytes
	// must stay identical. The shared digest sits in every header's Δ,
	// so its earliest live child moves with each eviction.
	shared := digest.Sum([]byte("referenced by all"))
	chain := chainFor(t, identity.Deterministic(9, 4), 14, []block.DigestRef{{Node: 7, Digest: shared}})
	orig := NewNodeState(4, 5)
	for _, b := range chain[:9] { // headers 0-3 already evicted
		orig.Trust.Add(b.Header.Clone())
	}
	restored, err := ReadSnapshotState(stateBytes(t, orig), stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	probes := []digest.Digest{shared}
	for _, b := range chain {
		probes = append(probes, b.Header.Hash())
	}
	for i, b := range chain[9:] {
		orig.Trust.Add(b.Header.Clone())
		restored.Trust.Add(b.Header.Clone())
		for _, d := range probes {
			ho, oko := orig.Trust.ChildOf(d)
			hr, okr := restored.Trust.ChildOf(d)
			if oko != okr || (oko && ho.Hash() != hr.Hash()) {
				t.Fatalf("add %d: ChildOf(%s) differs after restore", i, d)
			}
		}
		if !bytes.Equal(stateBytes(t, orig), stateBytes(t, restored)) {
			t.Fatalf("add %d: restored store serializes differently", i)
		}
	}
	if h, ok := restored.Trust.ChildOf(shared); !ok || h.Seq != 9 {
		t.Fatalf("earliest live child of the shared digest: %v %v, want seq 9", h, ok)
	}
}

// TestSnapshotV2CapEvictionOrder: a capped store snapshots its live
// FIFO window, and a restore replays Adds in insertion order so the
// next eviction hits the same header it would have live.
func TestSnapshotV2CapEvictionOrder(t *testing.T) {
	st := NewNodeState(4, 2)
	nb := identity.Deterministic(9, 4)
	blocks := chainFor(t, nb, 4, nil)
	for _, b := range blocks {
		st.Trust.Add(b.Header.Clone()) // cap 2: ends with headers 2,3
	}
	got, err := ReadSnapshotState(stateBytes(t, st), stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trust.Has(blocks[2].Header.Hash()) || !got.Trust.Has(blocks[3].Header.Hash()) {
		t.Fatal("live FIFO window lost")
	}
	// One more Add must evict header 2 — the oldest of the restored
	// window — exactly as it would have without the restart.
	extra := chainFor(t, nb, 5, nil)[4]
	got.Trust.Add(extra.Header.Clone())
	if got.Trust.Has(blocks[2].Header.Hash()) || !got.Trust.Has(blocks[3].Header.Hash()) {
		t.Fatal("restored FIFO evicts in the wrong order")
	}
}

// TestSnapshotV2ReadsV1: version skew — a pre-existing store-only
// snapshot restores into a state with empty H_i/A_i.
func TestSnapshotV2ReadsV1(t *testing.T) {
	s := snapshotStore(t, 3)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadSnapshotState(buf.Bytes(), stateOpts())
	if err != nil {
		t.Fatalf("v1 stream: %v", err)
	}
	if st.Store.Len() != 3 || st.Trust.Len() != 0 || st.Cache.Len() != 0 {
		t.Fatal("v1 restore wrong")
	}
}

func TestSnapshotV2RejectsCorruption(t *testing.T) {
	raw := stateBytes(t, populatedState(t, 0))

	// Any single flipped byte trips the stream CRC.
	for _, i := range []int{8, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xFF
		if _, err := ReadSnapshotState(bad, stateOpts()); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("flip %d: %v", i, err)
		}
	}
	// So does truncation — including cutting into the trailing CRC.
	for _, cut := range []int{0, 7, 11, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadSnapshotState(raw[:cut], stateOpts()); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

func TestSnapshotV2WrongOwner(t *testing.T) {
	raw := stateBytes(t, populatedState(t, 0))
	opts := stateOpts()
	opts.Owner = 5
	if _, err := ReadSnapshotState(raw, opts); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("wrong owner: %v", err)
	}
}

// TestSnapshotIgnoresIndex: snapshots serialize the log, never the
// responder index, so a store that has built its index and one that
// never did write the same bytes — and those bytes are pinned by a
// digest computed before the index moved to 64-bit keys and the
// simulator's block arena was removed, so no index change can move
// them.
func TestSnapshotIgnoresIndex(t *testing.T) {
	const golden = "8653bb0963bbc08286fb7dfc0e2ae2c781d5760b1b5763458f3e10e5c19dcf92"
	shared := digest.Sum([]byte("referenced by all"))
	blocks := chainFor(t, identity.Deterministic(4, 4), 6, []block.DigestRef{{Node: 7, Digest: shared}})
	build := func() *NodeState {
		st := NewNodeState(4, 5)
		for _, b := range blocks {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range chainFor(t, identity.Deterministic(9, 4), 3, nil) {
			st.Trust.Add(b.Header.Clone())
		}
		st.Cache.Update(9, digest.Sum([]byte("nine")))
		return st
	}
	cold, indexed := build(), build()
	if b, ok := indexed.Store.OldestContaining(shared); !ok || b != blocks[0] {
		t.Fatal("responder index misses the shared digest")
	}

	var a, b bytes.Buffer
	if err := cold.Store.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := indexed.Store.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("v1 snapshot differs once the responder index is built")
	}
	raw := stateBytes(t, indexed)
	if !bytes.Equal(stateBytes(t, cold), raw) {
		t.Fatal("v2 snapshot differs once the responder index is built")
	}
	if got := digest.Sum(raw).Hex(); got != golden {
		t.Fatalf("v2 snapshot bytes moved: digest %s, golden %s", got, golden)
	}

	// Round-trip restores the same blocks, found by sequence number,
	// and a store that indexes on demand.
	restored, err := ReadSnapshotState(raw, stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Store.Len() != len(blocks) {
		t.Fatal("snapshot lost blocks")
	}
	for _, want := range blocks {
		got, err := restored.Store.Get(want.Header.Seq)
		if err != nil || got.Header.Hash() != want.Header.Hash() {
			t.Fatalf("restored #%d: %v, %v", want.Header.Seq, got, err)
		}
	}
	if child, ok := restored.Store.OldestContaining(blocks[0].Header.Hash()); !ok || child.Header.Seq != 1 {
		t.Fatal("restored store lost the digest index")
	}
}

// FuzzReadSnapshotState: arbitrary bytes must never panic; on success
// the state must be consistent and re-serializable.
func FuzzReadSnapshotState(f *testing.F) {
	st := NewNodeState(4, 3)
	key := identity.Deterministic(4, 4)
	p := testParams()
	b, err := p.Build(key, 0, 0, []byte("fuzz"), []block.DigestRef{{Node: 4}})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Store.Append(b); err != nil {
		f.Fatal(err)
	}
	st.Cache.Update(9, digest.Sum([]byte("n")))
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-2])
	f.Add(append([]byte("2LDGSNP\x02"), 4, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSnapshotState(data, RecoverOptions{Owner: 4, Params: p})
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteSnapshot(&out); err != nil {
			t.Fatalf("restored state does not re-serialize: %v", err)
		}
	})
}
