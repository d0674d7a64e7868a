package block

import (
	"encoding/binary"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Hot-path micro-benchmarks (see BENCH_hotpath.json at the repo root
// for tracked results). Regenerate with:
//
//	go test -run '^$' -bench 'Hotpath' -benchmem ./internal/...

func benchHeader(b *testing.B, neighbors int) *Block {
	b.Helper()
	key := identity.Deterministic(1, 7)
	refs := []DigestRef{{Node: 1}}
	for v := 2; v <= neighbors+1; v++ {
		refs = append(refs, DigestRef{Node: identity.NodeID(v), Digest: digest.Sum([]byte{byte(v)})})
	}
	p := testParams()
	p.Difficulty = 0
	blk, err := p.Build(key, 1, 1, []byte("bench body"), refs)
	if err != nil {
		b.Fatal(err)
	}
	return blk
}

// BenchmarkHotpathHeaderHashSealed measures H(b^h) on a sealed header —
// the per-audit-hop cost after memoization.
func BenchmarkHotpathHeaderHashSealed(b *testing.B) {
	blk := benchHeader(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blk.Header.Hash()
	}
}

// BenchmarkHotpathHeaderHashCold measures the unmemoized serialize+hash
// (the old per-call cost), by re-hashing a fresh clone each iteration.
func BenchmarkHotpathHeaderHashCold(b *testing.B) {
	blk := benchHeader(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blk.Header.Clone().Hash()
	}
}

// BenchmarkHotpathValidateHeaderCacheHit measures the digest-keyed
// validation cache on the hit path — the steady-state audit-hop cost.
func BenchmarkHotpathValidateHeaderCacheHit(b *testing.B) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	p := testParams()
	p.Difficulty = 0
	blk := benchHeader(b, 8)
	cache := NewVerifyCache()
	if err := p.ValidateHeaderCached(&blk.Header, ring, cache); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ValidateHeaderCached(&blk.Header, ring, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathValidateHeaderCacheMiss measures the full PoW +
// ed25519 check (the old per-hop cost, and the first-sight cost now).
func BenchmarkHotpathValidateHeaderCacheMiss(b *testing.B) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	p := testParams()
	p.Difficulty = 0
	blk := benchHeader(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ValidateHeader(&blk.Header, ring); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathSeal measures one seal as the drivers pay it:
// Params.Build of a 1 KiB body under a Δ of 9 (own previous + 8
// neighbors) at the default difficulty — Merkle root, the Eq. 5 nonce
// grind, the Eq. 6 signature and the header hash. The body changes
// every iteration so ns/op averages over the ~256 expected tries.
func BenchmarkHotpathSeal(b *testing.B) {
	key := identity.Deterministic(1, 7)
	refs := benchHeader(b, 8).Header.Digests
	p := DefaultParams()
	body := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(body, uint64(i))
		if _, err := p.Build(key, 1, 1, body, refs); err != nil {
			b.Fatal(err)
		}
	}
}
