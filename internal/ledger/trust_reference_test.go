package ledger

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// trustReference is H_i as it was before the compact layout: two
// digest-keyed maps and an order slice, with the original method
// bodies (locking and journaling aside). It is the model the slot-table
// layout must be indistinguishable from.
type trustReference struct {
	headers   map[digest.Digest]*block.Header
	children  map[digest.Digest][]digest.Digest
	totalRefs int64
	capLimit  int
	order     []digest.Digest
	head      int
	inserted  int64
}

func newTrustReference() *trustReference {
	return &trustReference{
		headers:  make(map[digest.Digest]*block.Header),
		children: make(map[digest.Digest][]digest.Digest),
	}
}

func (t *trustReference) SetCap(n int) { t.capLimit = n }
func (t *trustReference) Cap() int     { return t.capLimit }

func (t *trustReference) Add(h *block.Header) bool {
	sealed := h.Sealed()
	hh := h.Hash()
	if _, dup := t.headers[hh]; dup {
		return false
	}
	cp := h
	if !sealed {
		cp = h.CloneSealed()
	}
	t.inserted++
	t.headers[hh] = cp
	for _, ref := range cp.Digests {
		if ref.Digest.IsZero() {
			continue
		}
		t.children[ref.Digest] = append(t.children[ref.Digest], hh)
		t.totalRefs++
	}
	t.order = append(t.order, hh)
	if t.capLimit > 0 {
		for len(t.headers) > t.capLimit && t.head < len(t.order) {
			t.evict(t.order[t.head])
			t.head++
		}
	}
	if t.head > len(t.order)/2 && t.head > t.capLimit && t.head > 64 {
		t.order = append(t.order[:0], t.order[t.head:]...)
		t.head = 0
	}
	return true
}

func (t *trustReference) evict(hh digest.Digest) {
	h, ok := t.headers[hh]
	if !ok {
		return
	}
	delete(t.headers, hh)
	for _, ref := range h.Digests {
		if ref.Digest.IsZero() {
			continue
		}
		t.totalRefs--
		list := t.children[ref.Digest]
		for k, x := range list {
			if x == hh {
				list = append(list[:k], list[k+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(t.children, ref.Digest)
		} else {
			t.children[ref.Digest] = list
		}
	}
}

func (t *trustReference) Insertions() int64 { return t.inserted }

func (t *trustReference) appendHeaders(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.inserted))
	live := t.order[t.head:]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(live)))
	for _, hh := range live {
		dst = appendFramed(dst, block.AppendEncodeHeader, t.headers[hh])
	}
	return dst
}

func (t *trustReference) Has(headerHash digest.Digest) bool {
	_, ok := t.headers[headerHash]
	return ok
}

func (t *trustReference) Get(headerHash digest.Digest) (*block.Header, bool) {
	h, ok := t.headers[headerHash]
	return h, ok
}

func (t *trustReference) ChildOf(d digest.Digest) (*block.Header, bool) {
	if d.IsZero() {
		return nil, false
	}
	hashes := t.children[d]
	if len(hashes) == 0 {
		return nil, false
	}
	return t.headers[hashes[0]], true
}

func (t *trustReference) Len() int { return len(t.headers) }

func (t *trustReference) ModelBits(m block.SizeModel) int64 {
	return int64(len(t.headers))*int64(m.ConstantBits()) + t.totalRefs*int64(m.FH)
}

var trustRefCaps = []int{0, 1, 7, 64, 1024}

// trustProgram is a byte string read as a stream of operations on H_i;
// seeded random bytes make the test's streams and the fuzz corpus, and
// the fuzzer mutates them. It covers what the layout has to get right:
// re-added headers (sealed and as unsealed copies), digests shared by
// many headers, the same digest twice in one Δ, zero digests, digests
// that differ only after their 8-byte key, and SetCap mid-stream.
type trustProgram struct {
	code []byte
	pc   int
}

func (p *trustProgram) next() (byte, bool) {
	if p.pc >= len(p.code) {
		return 0, false
	}
	b := p.code[p.pc]
	p.pc++
	return b, true
}

// arg reads an operand; a program that ends mid-operation reads zeros.
func (p *trustProgram) arg() int {
	b, _ := p.next()
	return int(b)
}

// collidingDigest returns one of four digests sharing their first
// eight bytes — the unmasked key.
func collidingDigest(i int) digest.Digest {
	d := digest.Sum([]byte("shared key"))
	d[31] = byte(i % 4)
	return d
}

// trustPair drives a TrustStore and the reference through one program
// and remembers everything ever added or referenced.
type trustPair struct {
	t      testing.TB
	got    *TrustStore
	want   *trustReference
	added  []*block.Header
	hashes []digest.Digest // of added, same order
	refs   map[digest.Digest]struct{}
	model  block.SizeModel
}

func newTrustPair(t testing.TB, capLimit int, keyMask uint64) *trustPair {
	p := &trustPair{
		t: t, got: NewTrustStore(), want: newTrustReference(),
		refs: make(map[digest.Digest]struct{}), model: block.DefaultSizeModel(100),
	}
	p.got.keyMask = keyMask
	p.got.SetCap(capLimit)
	p.want.SetCap(capLimit)
	return p
}

// step runs one operation; false means the program is over.
func (p *trustPair) step(prog *trustProgram) bool {
	op, ok := prog.next()
	if !ok {
		return false
	}
	switch {
	case op%16 == 0:
		n := trustRefCaps[prog.arg()%len(trustRefCaps)]
		p.got.SetCap(n)
		p.want.SetCap(n)
	case op%16 <= 2 && len(p.added) > 0:
		h := p.added[prog.arg()%len(p.added)]
		if op&0x80 != 0 {
			h = h.Clone() // unsealed copy of a header seen before
		}
		p.add(h)
	default:
		h := &block.Header{
			Version: block.CurrentVersion, Origin: identity.NodeID(op % 5),
			Seq: uint32(len(p.added)), Signature: []byte{op},
		}
		for n := prog.arg() % 11; n > 0; n-- {
			var d digest.Digest
			switch sel := prog.arg(); {
			case sel%8 == 0:
				// zero digest: a genesis placeholder
			case sel%8 == 1:
				d = collidingDigest(prog.arg())
			case sel%8 == 2 && len(h.Digests) > 0:
				d = h.Digests[len(h.Digests)-1].Digest
			case sel%8 <= 5 && len(p.added) > 0:
				d = p.hashes[prog.arg()%len(p.added)]
			default:
				d = digest.Sum([]byte{byte(prog.arg() % 16)})
			}
			h.Digests = append(h.Digests, block.DigestRef{Node: identity.NodeID(n), Digest: d})
			p.refs[d] = struct{}{}
		}
		hh := h.Clone().Hash()
		if op&0x80 == 0 {
			h.Seal()
		}
		p.added = append(p.added, h)
		p.hashes = append(p.hashes, hh)
		p.add(h)
	}
	return true
}

func (p *trustPair) add(h *block.Header) {
	p.t.Helper()
	// The two stores must not share an unsealed header: Add seals its
	// argument's hash memo as a side effect.
	g, w := h, h
	if !h.Sealed() {
		g, w = h.Clone(), h.Clone()
	}
	if got, want := p.got.Add(g), p.want.Add(w); got != want {
		p.t.Fatalf("Add(%v) = %v, reference %v", h.Ref(), got, want)
	}
}

func sameHeader(a, b *block.Header) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Hash() == b.Hash() // covers every field
}

// checkCounts compares the O(1) observables.
func (p *trustPair) checkCounts() {
	p.t.Helper()
	if g, w := p.got.Len(), p.want.Len(); g != w {
		p.t.Fatalf("Len = %d, reference %d", g, w)
	}
	if g, w := p.got.Cap(), p.want.Cap(); g != w {
		p.t.Fatalf("Cap = %d, reference %d", g, w)
	}
	if g, w := p.got.Insertions(), p.want.Insertions(); g != w {
		p.t.Fatalf("Insertions = %d, reference %d", g, w)
	}
	if g, w := p.got.ModelBits(p.model), p.want.ModelBits(p.model); g != w {
		p.t.Fatalf("ModelBits = %d, reference %d", g, w)
	}
}

func (p *trustPair) checkChildOf(d digest.Digest) {
	p.t.Helper()
	g, gok := p.got.ChildOf(d)
	w, wok := p.want.ChildOf(d)
	if gok != wok || !sameHeader(g, w) {
		p.t.Fatalf("ChildOf(%s) = %v %v, reference %v %v", d, g, gok, w, wok)
	}
}

func (p *trustPair) checkpoints() (got, want []byte) {
	return p.got.appendHeaders(nil), p.want.appendHeaders(nil)
}

// checkAll compares every observable: each header ever added through
// Has and Get, ChildOf for every digest ever referenced and every
// header hash (a header's hash is what its children reference), and
// the checkpoint bytes.
func (p *trustPair) checkAll() {
	p.t.Helper()
	p.checkCounts()
	for _, hh := range p.hashes {
		if g, w := p.got.Has(hh), p.want.Has(hh); g != w {
			p.t.Fatalf("Has(%s) = %v, reference %v", hh, g, w)
		}
		g, gok := p.got.Get(hh)
		w, wok := p.want.Get(hh)
		if gok != wok || !sameHeader(g, w) {
			p.t.Fatalf("Get(%s) = %v %v, reference %v %v", hh, g, gok, w, wok)
		}
		if gok && g.Hash() != hh {
			p.t.Fatalf("Get(%s) returned a header hashing to %s", hh, g.Hash())
		}
		p.checkChildOf(hh)
	}
	for d := range p.refs {
		p.checkChildOf(d)
	}
	if g, w := p.checkpoints(); !bytes.Equal(g, w) {
		p.t.Fatal("checkpoint H_i branch differs from the reference")
	}
}

func randomTrustProgram(rng *rand.Rand, n int) []byte {
	code := make([]byte, n)
	rng.Read(code)
	return code
}

// trustKeyMasks are the production key and one narrowed to six bits,
// under which every probe run of both tables mixes several digests.
var trustKeyMasks = []uint64{^uint64(0), 0x3f}

// TestTrustStoreMatchesReference drives the slot-table layout and the
// old map layout with the same seeded streams and requires every
// observable to agree after every step.
func TestTrustStoreMatchesReference(t *testing.T) {
	for _, mask := range trustKeyMasks {
		for _, capLimit := range trustRefCaps {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("mask=%x/cap=%d/seed=%d", mask, capLimit, seed), func(t *testing.T) {
					prog := &trustProgram{code: randomTrustProgram(rand.New(rand.NewSource(seed)), 2048)}
					p := newTrustPair(t, capLimit, mask)
					collided := false
					for p.step(prog) {
						p.checkAll()
						collided = collided || tagsCollided(&p.got.byHash)
					}
					if len(p.added) < 100 {
						t.Fatalf("stream added only %d headers", len(p.added))
					}
					if mask != ^uint64(0) && !collided {
						t.Fatal("no two live header hashes of the narrowed key ever shared a tag")
					}
				})
			}
		}
	}
}

// TestTrustStoreMatchesReferenceLong runs streams long enough for a
// cap of 1024 to evict and for the ring to compact several times. The
// cheap observables and the lookups the step touched are compared
// after every step, everything every 256 steps.
func TestTrustStoreMatchesReferenceLong(t *testing.T) {
	for _, mask := range trustKeyMasks {
		for _, capLimit := range []int{64, 1024} {
			t.Run(fmt.Sprintf("mask=%x/cap=%d", mask, capLimit), func(t *testing.T) {
				want := int64(2*capLimit + 300)
				prog := &trustProgram{code: randomTrustProgram(rand.New(rand.NewSource(int64(capLimit))), int(want)*32)}
				p := newTrustPair(t, capLimit, mask)
				for n := 1; p.got.Insertions() < want; n++ {
					if !p.step(prog) {
						t.Fatalf("program ended after %d insertions", p.got.Insertions())
					}
					p.checkCounts()
					if len(p.added) > 0 {
						for _, ref := range p.added[len(p.added)-1].Digests {
							p.checkChildOf(ref.Digest)
						}
					}
					if n%256 == 0 {
						p.checkAll()
					}
				}
				p.checkAll()
			})
		}
	}
}

// FuzzTrustStoreMatchesReference lets the fuzzer write the program.
func FuzzTrustStoreMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomTrustProgram(rand.New(rand.NewSource(seed)), 512), uint8(seed), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, code []byte, capSel uint8, narrow bool) {
		mask := trustKeyMasks[0]
		if narrow {
			mask = trustKeyMasks[1]
		}
		p := newTrustPair(t, trustRefCaps[int(capSel)%len(trustRefCaps)], mask)
		prog := &trustProgram{code: code}
		for p.step(prog) {
			p.checkAll()
		}
	})
}
