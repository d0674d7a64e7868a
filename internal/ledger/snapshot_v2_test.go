package ledger

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Snapshot v2 — the whole-node stream earlier builds compacted every
// owner into, and hashed as its state digest — survives only here, as
// the reference: the bytes a state encodes to are the equivalence
// tests' probe of "the same state" (a recovered state must re-encode to
// the bytes of the state that was written), and NodeState.Digest is
// held to the digest of this stream on equal and unequal states.
//
//	magic(8) | owner(4) | trustCap(4)
//	| blockCount(4)  | { len(4) | block.Encode }…
//	| trustInserted(8) | headerCount(4) | { len(4) | block.AppendEncodeHeader }…  (insertion order)
//	| entryCount(4)  | { node(4) | digest(32) }…                          (node order)
//	| crc32c(4) over everything above

var snapshotMagicV2 = [8]byte{'2', 'L', 'D', 'G', 'S', 'N', 'P', 2}

// snapshotV2 encodes st as a v2 stream. Its trust and cache sections
// are the checkpoint's H_i and A_i branches, byte for byte. A body that
// lives only in the segment is read back (Store.Get), so a store that
// cannot read one encodes to an error.
func snapshotV2(st *NodeState) ([]byte, error) {
	out := append([]byte(nil), snapshotMagicV2[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(st.Store.Owner()))
	out = binary.LittleEndian.AppendUint32(out, uint32(st.TrustCap))
	n := st.Store.Len()
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	for seq := 0; seq < n; seq++ {
		b, err := st.Store.Get(uint32(seq))
		if err != nil {
			return nil, err
		}
		out = appendFramed(out, block.AppendEncode, b)
	}
	out = st.Trust.appendHeaders(out)
	out = st.Cache.appendEntries(out)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, walTable)), nil
}

// stateBytes is st's v2 encoding: the byte-identity probe.
func stateBytes(t testing.TB, st *NodeState) []byte {
	t.Helper()
	raw, err := snapshotV2(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotIgnoresIndex: the v2 reference encodes the log, never the
// responder index, so a store that has built its index and one that
// never did encode to the same bytes — pinned by a digest taken from
// the writer compaction used before the checkpoint replaced it (and
// before the index moved to 64-bit keys), so the reference is the
// format it claims to be. Restored through checkpoint and segment, the
// state re-encodes to the same bytes and indexes on demand.
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
	if b, ok := oldestIn(indexed.Store, shared); !ok || b != blocks[0] {
		t.Fatal("responder index misses the shared digest")
	}

	raw := stateBytes(t, indexed)
	if !bytes.Equal(stateBytes(t, cold), raw) {
		t.Fatal("v2 encoding differs once the responder index is built")
	}
	if got := digest.Sum(raw).Hex(); got != golden {
		t.Fatalf("v2 reference bytes moved: digest %s, golden %s", got, golden)
	}
	if cold.Digest() != indexed.Digest() {
		t.Fatal("state digest differs once the responder index is built")
	}

	restored := roundTrip(t, indexed, stateOpts())
	if !bytes.Equal(stateBytes(t, restored), raw) {
		t.Fatal("restored state re-encodes differently")
	}
	for _, want := range blocks {
		got, err := restored.Store.Get(want.Header.Seq)
		if err != nil || got.Header.Hash() != want.Header.Hash() {
			t.Fatalf("restored #%d: %v, %v", want.Header.Seq, got, err)
		}
	}
	if child, ok := oldestHeader(restored.Store, blocks[0].Header.Hash()); !ok || child.Seq != 1 {
		t.Fatal("restored store lost the digest index")
	}
}
