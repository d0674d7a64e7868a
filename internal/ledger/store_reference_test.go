package ledger

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// containsEntry is the old responder index record for one referenced
// digest: the oldest matching sequence and the match count.
type containsEntry struct {
	oldest uint32
	count  uint32
}

// containsReference is S_i's responder index as it was before the
// 64-bit-key layout: one full-digest-keyed {oldest, count} map with
// the original method bodies (locking and the lazy build aside). It is
// the model the compact index must be indistinguishable from.
type containsReference struct {
	contains map[digest.Digest]containsEntry
}

func newContainsReference() *containsReference {
	return &containsReference{contains: make(map[digest.Digest]containsEntry)}
}

func (r *containsReference) indexContains(h *block.Header) {
	for _, ref := range h.Digests {
		if ref.Digest.IsZero() {
			continue
		}
		e, ok := r.contains[ref.Digest]
		if !ok {
			e.oldest = h.Seq
		}
		e.count++
		r.contains[ref.Digest] = e
	}
}

func (r *containsReference) oldestContainingAt(d digest.Digest, limit uint32) (uint32, bool) {
	e, ok := r.contains[d]
	if !ok || e.oldest >= limit {
		return 0, false
	}
	return e.oldest, true
}

func (r *containsReference) countContaining(d digest.Digest) int {
	return int(r.contains[d].count)
}

// storeProgram is a byte string read as a stream of appended blocks;
// seeded random bytes make the test's streams and the fuzz corpus, and
// the fuzzer mutates them. It covers what the index has to get right:
// a neighbour's digest repeated over a run of blocks (A_i keeps it
// until the neighbour seals again), one digest referenced under two
// neighbours, the same digest twice in one Δ, zero digests, digests
// that differ only after their 8-byte key, and the chain reference to
// the store's own previous block.
type storeProgram struct {
	code []byte
	pc   int
}

func (p *storeProgram) next() (byte, bool) {
	if p.pc >= len(p.code) {
		return 0, false
	}
	b := p.code[p.pc]
	p.pc++
	return b, true
}

// arg reads an operand; a program that ends mid-block reads zeros.
func (p *storeProgram) arg() int {
	b, _ := p.next()
	return int(b)
}

// storeNeighbours is how many neighbour slots a generated Δ draws
// from; each holds the digest that neighbour last announced.
const storeNeighbours = 6

// storePair drives three stores and the reference through one program:
// eager's index exists before the first append and is kept current by
// Append alone; lazy's is dropped before every check, so each check
// rebuilds it from the whole log; cold is never queried and must stay
// unindexed.
type storePair struct {
	t     testing.TB
	eager *Store
	lazy  *Store
	cold  *Store
	want  *containsReference
	// latest[k] is neighbour k's current digest, minted counts the
	// digests handed out so far.
	latest [storeNeighbours]digest.Digest
	minted int
	// refs lists every digest ever referenced, in first-seen order.
	refs []digest.Digest
	seen map[digest.Digest]struct{}
}

func newStorePair(t testing.TB, keyMask uint64) *storePair {
	p := &storePair{
		t: t, eager: NewStore(1), lazy: NewStore(1), cold: NewStore(1),
		want: newContainsReference(), seen: make(map[digest.Digest]struct{}),
	}
	for _, s := range []*Store{p.eager, p.lazy, p.cold} {
		s.keyMask = keyMask
	}
	// Queried before any append: the index is built over an empty log.
	if _, ok := p.eager.OldestContaining(digest.Sum([]byte("early"))); ok {
		t.Fatal("an empty store answered a responder query")
	}
	return p
}

// mint returns a digest no earlier call returned. Every fourth one
// shares its first eight bytes — the unmasked key — with the others.
func (p *storePair) mint() digest.Digest {
	p.minted++
	d := digest.Sum([]byte{byte(p.minted), byte(p.minted >> 8), 's'})
	if p.minted%4 == 0 {
		shared := collidingDigest(0)
		copy(d[:8], shared[:8])
	}
	return d
}

// step appends one block; false means the program is over.
func (p *storePair) step(prog *storeProgram) bool {
	op, ok := prog.next()
	if !ok {
		return false
	}
	seq := uint32(p.eager.Len())
	h := block.Header{Version: block.CurrentVersion, Origin: 1, Seq: seq, Signature: []byte{op}}
	// Own-previous first, as block.Params.Build lays Δ out; genesis
	// carries the zero digest there.
	var prev digest.Digest
	if latest := p.eager.Latest(); latest != nil {
		prev = latest.Header.Hash()
	}
	h.Digests = append(h.Digests, block.DigestRef{Node: 1, Digest: prev})
	for n := int(op) % (storeNeighbours + 2); n > 0; n-- {
		k := prog.arg() % storeNeighbours
		var d digest.Digest
		switch sel := prog.arg() % 8; {
		case sel == 0:
			// zero digest: a neighbour that has announced nothing yet
		case sel == 1:
			// the neighbour sealed a new block
			p.latest[k] = p.mint()
			d = p.latest[k]
		case sel == 2 && len(h.Digests) > 1:
			// the previous reference again, under this neighbour
			d = h.Digests[len(h.Digests)-1].Digest
		case sel == 3 && len(p.refs) > 0:
			// a digest from anywhere in the past resurfaces
			d = p.refs[prog.arg()%len(p.refs)]
		default:
			// the neighbour's digest is unchanged since the last block
			d = p.latest[k]
		}
		h.Digests = append(h.Digests, block.DigestRef{Node: identity.NodeID(2 + k), Digest: d})
	}
	for _, ref := range h.Digests {
		if _, dup := p.seen[ref.Digest]; !dup && !ref.Digest.IsZero() {
			p.seen[ref.Digest] = struct{}{}
			p.refs = append(p.refs, ref.Digest)
		}
	}
	// Unsealed on purpose: Append clones and seals, so the three stores
	// share nothing.
	b := &block.Block{Header: h}
	for _, s := range []*Store{p.eager, p.lazy, p.cold} {
		if err := s.Append(b); err != nil {
			p.t.Fatalf("Append #%d: %v", seq, err)
		}
	}
	p.want.indexContains(&h)
	return true
}

// checkDigest compares every responder answer for d: the whole log,
// every fence, and the count.
func (p *storePair) checkDigest(s *Store, name string, d digest.Digest) {
	// fence < 0 names the unfenced query. (No t.Helper here: it walks
	// the stack on every call, and this runs a few million times.)
	check := func(fence int, b *block.Block, ok bool) {
		limit := ^uint32(0)
		if fence >= 0 {
			limit = uint32(fence)
		}
		seq, wok := p.want.oldestContainingAt(d, limit)
		if ok != wok || (ok && b.Header.Seq != seq) {
			p.t.Fatalf("%s store, fence %d: OldestContaining(%s) = %v %v, reference #%d %v", name, fence, d.Hex(), b, ok, seq, wok)
		}
		if ok && !b.Header.Contains(d) {
			p.t.Fatalf("%s store, fence %d: OldestContaining(%s) answered #%d, whose Δ does not hold it", name, fence, d.Hex(), b.Header.Seq)
		}
	}
	b, ok := s.OldestContaining(d)
	check(-1, b, ok)
	for fence := 0; fence <= s.Len()+1; fence++ {
		b, ok := s.ViewAt(fence).OldestContaining(d)
		check(fence, b, ok)
	}
	if g, w := s.CountContaining(d), p.want.countContaining(d); g != w {
		p.t.Fatalf("%s store: CountContaining(%s) = %d, reference %d", name, d.Hex(), g, w)
	}
}

// checkAll compares, on the eager and the lazy store, every digest
// ever referenced, every block's own hash (what its chain child
// references), a few digests nobody referenced — one of them sharing
// the colliding key — and the zero digest, whose key is 0 yet must
// never hit.
func (p *storePair) checkAll() {
	p.lazy.contains, p.lazy.containsMore = nil, nil
	probes := append([]digest.Digest(nil), p.refs...)
	for _, h := range p.eager.Headers() {
		probes = append(probes, h.Hash())
	}
	probes = append(probes, digest.Digest{}, digest.Sum([]byte("never referenced")), collidingDigest(3))
	for _, d := range probes {
		p.checkDigest(p.eager, "incremental", d)
		p.checkDigest(p.lazy, "lazy", d)
	}
	if p.cold.contains != nil || p.cold.containsMore != nil {
		p.t.Fatal("a store nobody queried built its responder index")
	}
}

func randomStoreProgram(rng *rand.Rand, n int) []byte {
	code := make([]byte, n)
	rng.Read(code)
	return code
}

// storeKeyMasks are the production key and one narrowed to three
// bits, under which nearly every digest shares its key with an older
// one and the overflow map does the work.
var storeKeyMasks = []uint64{^uint64(0), 0x7}

// TestStoreIndexMatchesReference drives the compact responder index
// and the old full-digest map with the same seeded append streams and
// requires every responder answer to agree after every append.
func TestStoreIndexMatchesReference(t *testing.T) {
	// The race detector makes the brute-force fence sweep ~25x slower
	// and learns nothing from a second stream.
	seeds := int64(4)
	if raceEnabled {
		seeds = 1
	}
	for _, mask := range storeKeyMasks {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("mask=%x/seed=%d", mask, seed), func(t *testing.T) {
				prog := &storeProgram{code: randomStoreProgram(rand.New(rand.NewSource(seed)), 512)}
				p := newStorePair(t, mask)
				for p.step(prog) {
					p.checkAll()
				}
				if p.eager.Len() < 40 || len(p.refs) < 60 {
					t.Fatalf("stream appended only %d blocks over %d digests", p.eager.Len(), len(p.refs))
				}
				if mask != ^uint64(0) && len(p.eager.containsMore) == 0 {
					t.Fatal("the narrowed key never reached the overflow map")
				}
			})
		}
	}
}

// TestStoreIndexFenceBetweenCollidingDigests spells out the case the
// fence has to get right: two digests share a key, the first one's
// oldest block sits before the fence and the second one's after it.
func TestStoreIndexFenceBetweenCollidingDigests(t *testing.T) {
	early, late := collidingDigest(0), collidingDigest(1)
	s := NewStore(1)
	for seq, d := range []digest.Digest{early, early, late, late} {
		b := &block.Block{Header: block.Header{
			Version: block.CurrentVersion, Origin: 1, Seq: uint32(seq),
			Digests: []block.DigestRef{{Node: 2, Digest: d}},
		}}
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if b, ok := s.ViewAt(2).OldestContaining(late); ok {
		t.Fatalf("fence 2 answered #%d for a digest first referenced by #2", b.Header.Seq)
	}
	if b, ok := s.ViewAt(3).OldestContaining(late); !ok || b.Header.Seq != 2 {
		t.Fatalf("fence 3 = %v %v, want #2", b, ok)
	}
	if b, ok := s.OldestContaining(early); !ok || b.Header.Seq != 0 {
		t.Fatalf("OldestContaining(early) = %v %v, want #0", b, ok)
	}
	if len(s.contains) != 1 || len(s.containsMore) != 1 {
		t.Fatalf("index holds %d keys and %d overflow digests, want 1 and 1", len(s.contains), len(s.containsMore))
	}
}

// FuzzStoreIndexMatchesReference lets the fuzzer write the program.
func FuzzStoreIndexMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomStoreProgram(rand.New(rand.NewSource(seed)), 256), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, code []byte, narrow bool) {
		mask := storeKeyMasks[0]
		if narrow {
			mask = storeKeyMasks[1]
		}
		// Every check walks every fence for every digest, cubic in the
		// block count: keep one input to some forty blocks.
		if len(code) > 384 {
			code = code[:384]
		}
		p := newStorePair(t, mask)
		prog := &storeProgram{code: code}
		for p.step(prog) {
			p.checkAll()
		}
	})
}
