package ledger

import (
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
)

// heapDegree is the Δ size of the synthetic headers: own-previous plus
// eight neighbours, the benchmark topology's degree.
const heapDegree = 9

// syntheticHeader returns a sealed header owned by node 1 whose Δ holds
// heapDegree digests no other header references — the worst case for
// the digest-keyed indexes, one new key per reference.
func syntheticHeader(seq uint32) *block.Header {
	h := &block.Header{Version: block.CurrentVersion, Origin: 1, Seq: seq, Digests: make([]block.DigestRef, heapDegree)}
	var seed [8]byte
	for k := range h.Digests {
		binary.LittleEndian.PutUint32(seed[:4], seq)
		binary.LittleEndian.PutUint32(seed[4:], uint32(k))
		h.Digests[k] = block.DigestRef{Node: 1, Digest: digest.Sum(seed[:])}
	}
	h.Seal()
	return h
}

// syntheticBlocks returns n fully sealed, body-less blocks around
// syntheticHeader(0..n-1): a log node 1 can append in order.
func syntheticBlocks(tb testing.TB, n int) []*block.Block {
	tb.Helper()
	p := testParams()
	blocks := make([]*block.Block, n)
	for i := range blocks {
		blocks[i] = &block.Block{Header: *syntheticHeader(uint32(i)).Clone()}
		if err := p.SealBlock(blocks[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return blocks
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// skipUnderRace keeps the byte ceilings meaningful: the race detector's
// allocator inflates HeapAlloc, and loosening a ceiling to fit it would
// blunt the ordinary run.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's allocator inflates HeapAlloc")
	}
}

// indexBytesPer runs fill, which stores n prebuilt items, and returns
// the live heap it added per item. The items themselves are allocated
// before the first sample and kept alive past the second, so only what
// the store builds around them is counted.
func indexBytesPer(n int, fill func() any) float64 {
	before := liveHeap()
	store := fill()
	after := liveHeap()
	runtime.KeepAlive(store)
	return float64(after-before) / float64(n)
}

// TestTrustStoreIndexBytesPerHeader bounds what H_i spends around each
// trusted header. The paper's accounting for H_i is "a fingerprint"
// per foreign block (Prop. 2); the two digest-keyed maps plus order
// slice this layout replaced measured 1,236 B here against ~520 B for
// the header itself.
func TestTrustStoreIndexBytesPerHeader(t *testing.T) {
	skipUnderRace(t)
	const n, ceiling = 100_000, 700
	hdrs := make([]*block.Header, n)
	for i := range hdrs {
		hdrs[i] = syntheticHeader(uint32(i))
	}
	per := indexBytesPer(n, func() any {
		ts := NewTrustStore()
		for _, h := range hdrs {
			ts.Add(h)
		}
		return ts
	})
	runtime.KeepAlive(hdrs)
	t.Logf("%.0f B of index per trusted header", per)
	if per > ceiling {
		t.Fatalf("H_i spends %.0f B of index per header, ceiling %d", per, ceiling)
	}
}

// TestStoreIndexBytesPerBlock is the same bound for S_i: the log slot
// and the responder index, once a first query has built it — one
// 64-bit key → sequence number entry per referenced digest, nine a
// block here. The 701 B it replaced were a digest → {oldest, count}
// entry per reference (~76 B each, ~640 B a block: the 32-byte keys
// repeated digests the log's own headers already hold) plus a
// hash → sequence entry per block (~62 B) that no protocol path read.
func TestStoreIndexBytesPerBlock(t *testing.T) {
	skipUnderRace(t)
	const n, ceiling = 50_000, 330
	blocks := syntheticBlocks(t, n)
	per := indexBytesPer(n, func() any {
		s := NewStore(1)
		for _, b := range blocks {
			if err := s.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.OldestContaining(blocks[n/2].Header.Digests[0].Digest); !ok {
			t.Fatal("responder index misses a referenced digest")
		}
		return s
	})
	runtime.KeepAlive(blocks)
	t.Logf("%.0f B of index per appended block", per)
	if per > ceiling {
		t.Fatalf("S_i spends %.0f B of index per block, ceiling %d", per, ceiling)
	}
}
