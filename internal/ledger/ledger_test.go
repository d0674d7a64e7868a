package ledger

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// CountContaining returns |C_j'(b)|: how many Δ entries of the owner's
// blocks reference digest d. Tests of the micro-loop analysis
// (Prop. 5) ask it; no protocol path does, so it scans the log instead of
// costing the index a counter per digest.
func (s *Store) CountContaining(d digest.Digest) int {
	if d.IsZero() {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, b := range s.blocks {
		for k := range b.Header.Digests {
			if b.Header.Digests[k].Digest == d {
				n++
			}
		}
	}
	return n
}

// oldestIn is OldestContaining on a store that holds its blocks: the
// stored block, or nil and false when no block holds d.
func oldestIn(s *Store, d digest.Digest) (*block.Block, bool) {
	v, err := s.OldestContaining(d)
	return v.Block, err == nil
}

// oldestHeader is OldestContaining's answer as a header, however the
// store holds it; nil and false when no block holds d or it cannot be
// read back.
func oldestHeader(s *Store, d digest.Digest) (*block.Header, bool) {
	v, err := s.OldestContaining(d)
	if err != nil {
		return nil, false
	}
	h, err := v.Header()
	return h, err == nil
}

func testParams() block.Params {
	p := block.DefaultParams()
	p.Difficulty = 2
	return p
}

// chainFor builds a small log of n blocks for node id, where every block
// after genesis references the previous one plus extra neighbor refs.
func chainFor(t testing.TB, key identity.KeyPair, n int, extra []block.DigestRef) []*block.Block {
	t.Helper()
	p := testParams()
	var out []*block.Block
	prev := digest.Digest{}
	for i := 0; i < n; i++ {
		refs := append([]block.DigestRef{{Node: key.ID, Digest: prev}}, extra...)
		b, err := p.Build(key, uint32(i), uint32(i), []byte{byte(i)}, refs)
		if err != nil {
			t.Fatalf("Build %d: %v", i, err)
		}
		out = append(out, b)
		prev = b.Header.Hash()
	}
	return out
}

func TestStoreAppendGetLatest(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	blocks := chainFor(t, key, 3, nil)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if s.Len() != 3 || s.Owner() != 1 {
		t.Fatalf("Len/Owner wrong: %d %v", s.Len(), s.Owner())
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Seq != 1 {
		t.Fatal("Get(1) returned wrong block")
	}
	if s.Latest().Header.Seq != 2 {
		t.Fatal("Latest wrong")
	}
	if s.BodyBytes() != 3 {
		t.Fatalf("BodyBytes = %d, want 3", s.BodyBytes())
	}
}

func TestStoreRejectsWrongOriginAndSeq(t *testing.T) {
	key := identity.Deterministic(2, 1)
	s := NewStore(1)
	b := chainFor(t, key, 1, nil)[0]
	if err := s.Append(b); !errors.Is(err, ErrWrongOrigin) {
		t.Fatalf("want ErrWrongOrigin, got %v", err)
	}
	own := identity.Deterministic(1, 1)
	blocks := chainFor(t, own, 2, nil)
	if err := s.Append(blocks[1]); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("want ErrBadSeq, got %v", err)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewStore(1)
	if _, err := s.Get(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if s.Latest() != nil {
		t.Fatal("Latest on empty store should be nil")
	}
}

func TestStoreOldestContaining(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	target := digest.Sum([]byte("neighbor block"))
	// Two blocks reference target; the oldest must win (Eq. 11).
	blocks := chainFor(t, key, 3, []block.DigestRef{{Node: 9, Digest: target}})
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// A block is found by its sequence number, and is the very block
	// that was appended.
	if got, err := s.Get(1); err != nil || got != blocks[1] || got.Header.Hash() != blocks[1].Header.Hash() {
		t.Fatalf("Get(1) = %v, %v", got, err)
	}
	if _, err := s.OldestContaining(digest.Sum([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("OldestContaining of an unreferenced digest: %v, want ErrNotFound", err)
	}
	oldest, ok := oldestIn(s, target)
	if !ok || oldest.Header.Seq != 0 {
		t.Fatalf("OldestContaining returned seq %d, want 0", oldest.Header.Seq)
	}
	if s.CountContaining(target) != 3 {
		t.Fatalf("CountContaining = %d, want 3", s.CountContaining(target))
	}
	// Chain links: block 1's Δ contains block 0's hash.
	child, ok := oldestIn(s, blocks[0].Header.Hash())
	if !ok || child.Header.Seq != 1 {
		t.Fatal("chain child lookup failed")
	}
}

// TestStoreIndexStaysCurrentAfterLazyBuild queries the responder index
// early (forcing the lazy build) and then keeps appending: post-build
// appends must land in the index incrementally.
func TestStoreIndexStaysCurrentAfterLazyBuild(t *testing.T) {
	key := identity.Deterministic(1, 1)
	target := digest.Sum([]byte("late ref"))
	blocks := chainFor(t, key, 4, []block.DigestRef{{Node: 9, Digest: target}})

	s := NewStore(1)
	if err := s.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	// Force the lazy build with only one block in the log.
	if oldest, ok := oldestIn(s, target); !ok || oldest != blocks[0] {
		t.Fatal("index wrong after lazy build")
	}
	for _, b := range blocks[1:] {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.CountContaining(target) != 4 {
		t.Fatalf("CountContaining = %d, want 4 after post-build appends", s.CountContaining(target))
	}
	if oldest, ok := oldestIn(s, target); !ok || oldest != blocks[0] {
		t.Fatal("a later reference displaced the oldest block")
	}
	if oldest, ok := oldestIn(s, blocks[2].Header.Hash()); !ok || oldest != blocks[3] {
		t.Fatal("post-build append missing from index")
	}
}

func TestStoreSharedSealedReads(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	b := chainFor(t, key, 1, nil)[0]
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	// Reads share one sealed block — no per-read body copy.
	got, _ := s.Get(0)
	again, _ := s.Get(0)
	if got != again {
		t.Fatal("Get must return the shared sealed block, not a copy")
	}
	if !got.Sealed() || !got.Header.Sealed() {
		t.Fatal("stored blocks must be sealed")
	}
	// Mutators work on clones, which never touch the stored block.
	mut := got.Clone()
	mut.Body[0] ^= 0xFF
	fresh, _ := s.Get(0)
	if fresh.Body[0] == mut.Body[0] {
		t.Fatal("clone aliases the stored body")
	}
}

func TestStoreAppendCopiesUnsealedBlocks(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	// A decode round-trip produces an unsealed block, as from a snapshot
	// or the wire; Append must defensively copy it.
	sealed := chainFor(t, key, 1, nil)[0]
	unsealed, err := block.Decode(block.Encode(sealed))
	if err != nil {
		t.Fatal(err)
	}
	if unsealed.Sealed() {
		t.Fatal("decoded block should start unsealed")
	}
	if err := s.Append(unsealed); err != nil {
		t.Fatal(err)
	}
	unsealed.Body[0] ^= 0xFF // caller keeps mutating its copy
	got, _ := s.Get(0)
	if got.Body[0] == unsealed.Body[0] {
		t.Fatal("Append shared memory with an unsealed caller block")
	}
	if !got.Header.Sealed() {
		t.Fatal("stored copy must be header-sealed")
	}
}

func TestStoreAppendPreservesFullSeal(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	// A restorer that knows the Params can fully seal a decoded block
	// before Append, carrying the body-root memo into the store.
	decoded, err := block.Decode(block.Encode(chainFor(t, key, 1, nil)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := testParams().SealBlock(decoded); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(decoded); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(0)
	if !got.Sealed() {
		t.Fatal("fully sealed block lost its seal through Append")
	}
	if root, ok := got.CachedBodyRoot(testParams().LeafSize); !ok || root != got.Header.Root {
		t.Fatal("body-root memo missing or wrong after SealBlock + Append")
	}
}

func TestStoreModelBits(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	extra := []block.DigestRef{{Node: 5, Digest: digest.Sum([]byte("x"))}, {Node: 6, Digest: digest.Sum([]byte("y"))}}
	for _, b := range chainFor(t, key, 4, extra) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	m := block.DefaultSizeModel(100) // C = 800 bits
	// Each block: Δ has 3 entries (own prev + 2 neighbors) → matches
	// Eq. 2 with n = 2 neighbors: f_c + f_H*3 + C.
	want := int64(4) * int64(608+256*3+800)
	if got := s.ModelBits(m); got != want {
		t.Fatalf("ModelBits = %d, want %d", got, want)
	}
}

func TestQuickStoreModelBitsDecomposition(t *testing.T) {
	// Eq. 2 per block: f_i - C - f_H*|Δ_i| = f_c, summed over a log
	// whose blocks carry different numbers of neighbor refs.
	key := identity.Deterministic(1, 1)
	p := testParams()
	f := func(bodyBytes uint16, neighbors []uint8) bool {
		if len(neighbors) > 6 {
			neighbors = neighbors[:6]
		}
		s := NewStore(1)
		prev := digest.Digest{}
		refs := int64(0)
		for i, n := range neighbors {
			delta := []block.DigestRef{{Node: key.ID, Digest: prev}}
			for j := 0; j < int(n%5); j++ {
				delta = append(delta, block.DigestRef{Node: identity.NodeID(10 + j), Digest: digest.Sum([]byte{byte(i), byte(j)})})
			}
			b, err := p.Build(key, uint32(i), uint32(i), []byte{byte(i)}, delta)
			if err != nil || s.Append(b) != nil {
				return false
			}
			prev = b.Header.Hash()
			refs += int64(len(delta))
		}
		m := block.DefaultSizeModel(int(bodyBytes))
		blocks := int64(len(neighbors))
		return s.ModelBits(m)-blocks*int64(m.C)-refs*int64(m.FH) == blocks*int64(m.ConstantBits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDigestCache(t *testing.T) {
	c := NewDigestCache()
	d1, d2 := digest.Sum([]byte("b1")), digest.Sum([]byte("b2"))
	c.Update(5, d1)
	if got, ok := c.Get(5); !ok || got != d1 {
		t.Fatal("Get after Update failed")
	}
	c.Update(5, d2) // replaces, per Sec. III-D
	if got, _ := c.Get(5); got != d2 {
		t.Fatal("Update did not replace")
	}
	if c.Len() != 1 {
		t.Fatal("Len wrong")
	}
	c.Forget(5)
	if _, ok := c.Get(5); ok {
		t.Fatal("Forget failed")
	}
}

func TestDigestCacheSnapshot(t *testing.T) {
	c := NewDigestCache()
	dA, dB := digest.Sum([]byte("a")), digest.Sum([]byte("b"))
	c.Update(2, dA)
	c.Update(3, dB)
	prev := digest.Sum([]byte("prev"))
	refs := c.AppendSnapshot(nil, 1, prev, []identity.NodeID{2, 3, 4})
	if len(refs) != 4 {
		t.Fatalf("snapshot size %d, want 4", len(refs))
	}
	if refs[0].Node != 1 || refs[0].Digest != prev {
		t.Fatal("own-previous entry must come first")
	}
	if refs[1].Digest != dA || refs[2].Digest != dB {
		t.Fatal("neighbor digests in wrong order")
	}
	if !refs[3].Digest.IsZero() {
		t.Fatal("unknown neighbor must contribute a zero placeholder")
	}
}

func TestDigestCacheAppendSnapshotReusesScratch(t *testing.T) {
	c := NewDigestCache()
	d1, d2 := digest.Sum([]byte("a")), digest.Sum([]byte("b"))
	c.Update(2, d1)
	c.Update(3, d2)
	scratch := make([]block.DigestRef, 0, 8)
	prev := digest.Sum([]byte("prev"))
	got := c.AppendSnapshot(scratch[:0], 1, prev, []identity.NodeID{3, 2, 7})
	want := c.AppendSnapshot(nil, 1, prev, []identity.NodeID{3, 2, 7})
	if len(got) != len(want) {
		t.Fatalf("len mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("AppendSnapshot did not reuse the scratch backing array")
	}
}

func TestTrustStoreAddAndChildOf(t *testing.T) {
	key := identity.Deterministic(1, 1)
	ts := NewTrustStore()
	blocks := chainFor(t, key, 3, nil)
	h1 := blocks[1].Header.Clone()
	if !ts.Add(h1) {
		t.Fatal("first Add returned false")
	}
	if ts.Add(h1) {
		t.Fatal("duplicate Add returned true")
	}
	if ts.Len() != 1 {
		t.Fatal("Len wrong")
	}
	if !ts.Has(h1.Hash()) {
		t.Fatal("Has false for stored header")
	}
	// h1's Δ contains block 0's hash → h1 is a child of block 0.
	child, ok := ts.ChildOf(blocks[0].Header.Hash())
	if !ok || child.Hash() != h1.Hash() {
		t.Fatal("ChildOf failed for stored child")
	}
	if _, ok := ts.ChildOf(blocks[1].Header.Hash()); ok {
		t.Fatal("ChildOf hit for digest with no stored child")
	}
	if _, ok := ts.ChildOf(digest.Digest{}); ok {
		t.Fatal("ChildOf must never match zero digest")
	}
}

func TestTrustStoreSharedSealedReads(t *testing.T) {
	key := identity.Deterministic(1, 1)
	ts := NewTrustStore()
	h := chainFor(t, key, 1, nil)[0].Header.Clone()
	ts.Add(h)
	// The store keeps its own sealed copy: the caller's header stays
	// mutable, and readers share the stored reference.
	got, ok := ts.Get(h.Hash())
	if !ok {
		t.Fatal("Get miss")
	}
	if !got.Sealed() {
		t.Fatal("stored headers must be sealed")
	}
	h.Signature[0] ^= 0xFF // caller mutates its own copy
	again, _ := ts.Get(got.Hash())
	if again != got {
		t.Fatal("Get must return the shared sealed header")
	}
	if again.Signature[0] == h.Signature[0] {
		t.Fatal("TrustStore aliases the caller's header")
	}
}

// TestTrustStoreSealedHeadersShared pins the scale-mode contract:
// a header that is already sealed is stored by reference, not cloned,
// so thousands of validators index the one header its owner's log holds.
func TestTrustStoreSealedHeadersShared(t *testing.T) {
	key := identity.Deterministic(1, 1)
	ts := NewTrustStore()
	h := &chainFor(t, key, 1, nil)[0].Header
	if !h.Sealed() {
		t.Fatal("built header should be sealed")
	}
	ts.Add(h)
	got, ok := ts.Get(h.Hash())
	if !ok {
		t.Fatal("Get miss")
	}
	if got != h {
		t.Fatal("sealed header was cloned instead of shared")
	}
}

// TestTrustStoreCapEvictsFIFO checks the bounded mode scale runs use:
// oldest-inserted headers leave first, both indexes shrink with them,
// and evicted headers can be re-learned.
func TestTrustStoreCapEvictsFIFO(t *testing.T) {
	key := identity.Deterministic(1, 1)
	ts := NewTrustStore()
	ts.SetCap(2)
	blocks := chainFor(t, key, 4, nil)
	hs := make([]*block.Header, 4)
	for i := range blocks {
		hs[i] = &blocks[i].Header
	}
	ts.Add(hs[0])
	ts.Add(hs[1])
	ts.Add(hs[2]) // evicts hs[0]
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}
	if ts.Has(hs[0].Hash()) {
		t.Fatal("oldest header not evicted")
	}
	if !ts.Has(hs[1].Hash()) || !ts.Has(hs[2].Hash()) {
		t.Fatal("newer headers evicted")
	}
	// hs[1]'s Δ contains hs[0]'s hash, so the child index still answers
	// for the evicted block's digest; hs[0] itself was genesis (zero
	// prev), so its eviction removed no child entries... but adding
	// hs[3] must evict hs[1] and with it the child entry for hs[0].
	if _, ok := ts.ChildOf(hs[0].Hash()); !ok {
		t.Fatal("child index lost a live entry")
	}
	ts.Add(hs[3]) // evicts hs[1]
	if _, ok := ts.ChildOf(hs[0].Hash()); ok {
		t.Fatal("child index kept an evicted entry")
	}
	// Accounting shrinks with evictions: two live headers, one real
	// ref each (hs[2]'s prev, hs[3]'s prev).
	m := block.DefaultSizeModel(100)
	if got, want := ts.ModelBits(m), int64(2)*608+int64(2)*256; got != want {
		t.Fatalf("ModelBits = %d, want %d", got, want)
	}
	// An evicted header can be re-learned.
	if !ts.Add(hs[1]) {
		t.Fatal("re-adding evicted header failed")
	}
	if !ts.Has(hs[1].Hash()) {
		t.Fatal("re-added header missing")
	}
}

func TestTrustStoreModelBits(t *testing.T) {
	key := identity.Deterministic(1, 1)
	ts := NewTrustStore()
	extra := []block.DigestRef{{Node: 7, Digest: digest.Sum([]byte("n"))}}
	blocks := chainFor(t, key, 2, extra)
	ts.Add(blocks[0].Header.Clone()) // genesis: own-prev zero (skipped) + 1 real ref
	ts.Add(blocks[1].Header.Clone()) // 2 real refs
	m := block.DefaultSizeModel(100)
	// headers*f_c + totalRefs*f_H; refs counted = 1 + 2 = 3.
	want := int64(2)*608 + int64(3)*256
	if got := ts.ModelBits(m); got != want {
		t.Fatalf("ModelBits = %d, want %d", got, want)
	}
}
