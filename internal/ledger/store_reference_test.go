package ledger

import (
	"errors"
	"fmt"
	"io"
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
// fingerprint-sized layouts: one full-digest-keyed {oldest, count} map
// with the original method bodies (locking and the lazy build aside).
// It is the model the slot table must be indistinguishable from.
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

func (r *containsReference) oldestContaining(d digest.Digest) (uint32, bool) {
	e, ok := r.contains[d]
	return e.oldest, ok
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

// storePair drives five stores and the reference through one program:
// eager's index exists before the first append and is kept current by
// Append alone; lazy's is dropped before every check, so each check
// rebuilds it from the whole log; cold is never queried and must stay
// unindexed. durable and durableLazy are eager and lazy over a segment
// that every third block moves their blocks into, as a committed
// checkpoint does (Store.segmented): their answers and index builds
// read the headers back from it.
type storePair struct {
	t           testing.TB
	eager       *Store
	lazy        *Store
	cold        *Store
	durable     *Store
	durableLazy *Store
	seg         *memSegment
	want        *containsReference
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
		durable: NewStore(1), durableLazy: NewStore(1), seg: new(memSegment),
		want: newContainsReference(), seen: make(map[digest.Digest]struct{}),
	}
	for _, s := range p.stores() {
		s.keyMask = keyMask
	}
	for _, s := range []*Store{p.durable, p.durableLazy} {
		s.readBlocksFrom(p.seg)
	}
	// Queried before any append: the index is built over an empty log.
	for _, s := range []*Store{p.eager, p.durable} {
		if _, ok := oldestIn(s, digest.Sum([]byte("early"))); ok {
			t.Fatal("an empty store answered a responder query")
		}
	}
	return p
}

func (p *storePair) stores() []*Store {
	return []*Store{p.eager, p.lazy, p.cold, p.durable, p.durableLazy}
}

// memSegment is a segment held in memory.
type memSegment struct{ buf []byte }

func (m *memSegment) ReadAt(b []byte, off int64) (int, error) {
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(b, m.buf[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// segment moves the durable stores' blocks not yet in the segment into
// it, and lets them go.
func (p *storePair) segment() {
	from := p.durable.segmentedLocked()
	var recs []keptBlock
	for _, b := range p.durable.blocks[from:] {
		p.seg.buf = appendWALRecord(p.seg.buf, walKindBlock, block.Encode(b))
		recs = append(recs, keep(b, int64(len(p.seg.buf))))
	}
	p.durable.segmented(recs)
	p.durableLazy.segmented(append([]keptBlock(nil), recs...))
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
	// Unsealed on purpose: Append clones and seals, so the stores share
	// nothing.
	b := &block.Block{Header: h}
	for _, s := range p.stores() {
		if err := s.Append(b); err != nil {
			p.t.Fatalf("Append #%d: %v", seq, err)
		}
	}
	p.want.indexContains(&h)
	if op%3 == 0 {
		p.segment()
	}
	return true
}

// checkDigest compares both responder answers for d: the oldest block
// referencing it, and the count. (No t.Helper here: it walks the stack
// on every call, and this runs a few hundred thousand times.)
func (p *storePair) checkDigest(s *Store, name string, d digest.Digest) {
	b, ok := oldestIn(s, d)
	seq, wok := p.want.oldestContaining(d)
	if ok != wok || (ok && b.Header.Seq != seq) {
		p.t.Fatalf("%s store: OldestContaining(%s) = %v %v, reference #%d %v", name, d.Hex(), b, ok, seq, wok)
	}
	if ok && !b.Header.Contains(d) {
		p.t.Fatalf("%s store: OldestContaining(%s) answered #%d, whose Δ does not hold it", name, d.Hex(), b.Header.Seq)
	}
	if g, w := s.CountContaining(d), p.want.countContaining(d); g != w {
		p.t.Fatalf("%s store: CountContaining(%s) = %d, reference %d", name, d.Hex(), g, w)
	}
}

// checkServed compares a durable store's answer for d with the
// reference: the oldest block referencing it, read back from the
// segment unless it is the newest.
func (p *storePair) checkServed(s *Store, name string, d digest.Digest) {
	seq, wok := p.want.oldestContaining(d)
	v, err := s.OldestContaining(d)
	if errors.Is(err, ErrNotFound) && !wok {
		return
	}
	var h *block.Header
	if err == nil {
		h, err = v.Header()
	}
	if err != nil || !wok || h.Seq != seq || !h.Contains(d) {
		p.t.Fatalf("%s store: OldestContaining(%s) = %+v, %v; reference #%d %v", name, d.Hex(), h, err, seq, wok)
	}
}

// checkAll compares, on the eager and the lazy stores, in memory and
// durable, every digest ever referenced, every block's own hash (what its chain child
// references), a few digests nobody referenced — one of them sharing
// the colliding key — and the zero digest, whose key is 0 yet must
// never hit.
func (p *storePair) checkAll() {
	p.lazy.index = slotTable{}
	p.durableLazy.index = slotTable{}
	probes := append([]digest.Digest(nil), p.refs...)
	hs, err := p.eager.Headers()
	if err != nil {
		p.t.Fatal(err)
	}
	for _, h := range hs {
		probes = append(probes, h.Hash())
	}
	probes = append(probes, digest.Digest{}, digest.Sum([]byte("never referenced")), collidingDigest(3))
	for _, d := range probes {
		p.checkDigest(p.eager, "incremental", d)
		p.checkDigest(p.lazy, "lazy", d)
		p.checkServed(p.durable, "durable incremental", d)
		p.checkServed(p.durableLazy, "durable lazy", d)
	}
	if p.cold.index.slots != nil {
		p.t.Fatal("a store nobody queried built its responder index")
	}
}

func randomStoreProgram(rng *rand.Rand, n int) []byte {
	code := make([]byte, n)
	rng.Read(code)
	return code
}

// storeKeyMasks are the production key and one narrowed to three
// bits, under which nearly every digest shares its tag with an older
// one and each lookup walks past slots of other digests.
var storeKeyMasks = []uint64{^uint64(0), 0x7}

// TestStoreIndexMatchesReference drives the compact responder index
// and the old full-digest map with the same seeded append streams and
// requires every responder answer to agree after every append.
func TestStoreIndexMatchesReference(t *testing.T) {
	for _, mask := range storeKeyMasks {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("mask=%x/seed=%d", mask, seed), func(t *testing.T) {
				prog := &storeProgram{code: randomStoreProgram(rand.New(rand.NewSource(seed)), 512)}
				p := newStorePair(t, mask)
				for p.step(prog) {
					p.checkAll()
				}
				if p.eager.Len() < 40 || len(p.refs) < 60 {
					t.Fatalf("stream appended only %d blocks over %d digests", p.eager.Len(), len(p.refs))
				}
				if mask != ^uint64(0) && !tagsCollided(&p.eager.index) {
					t.Fatal("no two digests of the narrowed key ever shared a tag")
				}
			})
		}
	}
}

// TestStoreIndexCollidingDigests spells out a tag collision: two
// digests share a key, so both of their slots sit under one tag, in
// sequence order, and each lookup steps over the other's block.
func TestStoreIndexCollidingDigests(t *testing.T) {
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
	if b, ok := oldestIn(s, late); !ok || b.Header.Seq != 2 {
		t.Fatalf("OldestContaining(late) = %v %v, want #2", b, ok)
	}
	if b, ok := oldestIn(s, early); !ok || b.Header.Seq != 0 {
		t.Fatalf("OldestContaining(early) = %v %v, want #0", b, ok)
	}
	// Blocks #1 and #3 repeat a digest an older block holds: no slot.
	// The two left are one probe run, in sequence order.
	tag, mask := slotTag(digestKey(&early)), s.index.mask()
	var seqs []uint32
	for i := tag & mask; s.index.slots[i] != 0; i = (i + 1) & mask {
		if sl := s.index.slots[i]; sl>>32 != tag {
			t.Fatalf("slot %#x is not under the shared tag %#x", sl, tag)
		}
		seqs = append(seqs, uint32(s.index.slots[i]))
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 2 || s.index.used != 2 {
		t.Fatalf("index holds sequences %v (used %d), want [0 2]", seqs, s.index.used)
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
		// Every check queries every digest, quadratic in the block
		// count: keep one input to some forty blocks.
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
