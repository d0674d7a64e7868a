package node

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
)

// seenRingReference is the idempotent-receive guard as it was first
// built: the ring of the last dedupWindow digests plus a map over them
// for membership. The flat ring must be indistinguishable from it.
type seenRingReference struct {
	ring [dedupWindow]digest.Digest
	idx  map[digest.Digest]struct{}
	n    int
}

func newSeenRingReference() *seenRingReference {
	return &seenRingReference{idx: make(map[digest.Digest]struct{}, dedupWindow)}
}

func (r *seenRingReference) has(d digest.Digest) bool {
	_, ok := r.idx[d]
	return ok
}

func (r *seenRingReference) add(d digest.Digest) {
	if r.has(d) {
		return
	}
	slot := r.n % dedupWindow
	if r.n >= dedupWindow {
		delete(r.idx, r.ring[slot])
	}
	r.ring[slot] = d
	r.idx[d] = struct{}{}
	r.n++
}

// seenAlphabet is the digest alphabet of the differential programs:
// half again as many digests as the window holds, so the window wraps
// and evicted digests come back. It holds the zero digest (the value
// of an unfilled slot) and pairs that share their first 8 bytes and
// differ after them (a prefix match the full comparison must reject).
var seenAlphabet = func() []digest.Digest {
	out := make([]digest.Digest, dedupWindow*3/2)
	for i := 1; i < len(out); i++ {
		out[i] = digest.Sum(binary.LittleEndian.AppendUint32(nil, uint32(i)))
	}
	for i := 2; i+1 < len(out); i += 8 {
		copy(out[i+1][:8], out[i][:8])
	}
	return out
}()

// seenProgram is a seeded byte string read as operations and their
// operands.
type seenProgram struct {
	code []byte
	pc   int
}

// arg reads an operand; a program that ends mid-operation reads zeros.
func (p *seenProgram) arg() int {
	if p.pc >= len(p.code) {
		return 0
	}
	p.pc++
	return int(p.code[p.pc-1])
}

func randomSeenProgram(rng *rand.Rand, n int) *seenProgram {
	code := make([]byte, n)
	rng.Read(code)
	return &seenProgram{code: code}
}

// seenPair drives the flat ring and the reference in step.
type seenPair struct {
	t                       testing.TB
	got                     *seenRing
	want                    *seenRingReference
	recorded                map[digest.Digest]bool
	repeats, evictedReturns int
}

func newSeenPair(t testing.TB) *seenPair {
	return &seenPair{t: t, got: new(seenRing), want: newSeenRingReference(), recorded: map[digest.Digest]bool{}}
}

// step runs one operation of prog: a check, a record of one digest, or
// a frame of several, a digest the frame repeats included. Records go
// through ingest, as the node's do. It reports false when prog is
// spent.
func (p *seenPair) step(prog *seenProgram) bool {
	if prog.pc >= len(prog.code) {
		return false
	}
	pick := func() digest.Digest { return seenAlphabet[prog.arg()%len(seenAlphabet)] }
	switch prog.arg() % 3 {
	case 0:
		p.check(pick())
	case 1:
		p.ingest([]digest.Digest{pick()})
	default:
		frame := make([]digest.Digest, 1+prog.arg()%6)
		for i := range frame {
			frame[i] = pick()
		}
		if prog.arg()%4 == 0 {
			frame = append(frame, frame[0])
			p.repeats++
		}
		p.ingest(frame)
	}
	return true
}

// ingest is the node's receive path on both rings: check every digest
// of frame, then record the fresh ones in one call.
func (p *seenPair) ingest(frame []digest.Digest) {
	var fresh []digest.Digest
	for _, d := range frame {
		if !p.check(d) {
			fresh = append(fresh, d)
			if p.recorded[d] {
				p.evictedReturns++
			}
		}
	}
	p.got.record(fresh)
	for _, d := range fresh {
		p.recorded[d] = true
		p.want.add(d)
	}
}

// check compares one lookup and returns its answer.
func (p *seenPair) check(d digest.Digest) bool {
	p.t.Helper()
	g, w := p.got.holds(d, 0), p.want.has(d)
	if g != w {
		p.t.Fatalf("holds(%s, 0) = %v, reference %v", d.Short(), g, w)
	}
	return w
}

// checkAll compares every lookup over the alphabet and the record
// count.
func (p *seenPair) checkAll() {
	p.t.Helper()
	for _, d := range seenAlphabet {
		p.check(d)
	}
	if p.got.n != p.want.n {
		p.t.Fatalf("%d digests recorded, reference %d", p.got.n, p.want.n)
	}
}

// TestSeenRingMatchesReference drives the flat ring and the map-backed
// reference with the same seeded programs of checks, records and
// frames, and requires every lookup over the alphabet to agree after
// every step.
func TestSeenRingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			prog := randomSeenProgram(rand.New(rand.NewSource(seed)), 4096)
			p := newSeenPair(t)
			for p.step(prog) {
				p.checkAll()
			}
			if p.want.n < 4*dedupWindow || p.repeats == 0 || p.evictedReturns == 0 {
				t.Fatalf("weak program: %d records, %d repeating frames, %d evicted digests recorded again",
					p.want.n, p.repeats, p.evictedReturns)
			}
		})
	}
}

// FuzzSeenRingMatchesReference runs the seeded test's check on
// programs the fuzzer picks by seed and length. The arguments are
// integers, not the program bytes, so the engine's input minimization
// stays cheap.
func FuzzSeenRingMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint16(512))
	}
	f.Fuzz(func(t *testing.T, seed int64, length uint16) {
		prog := randomSeenProgram(rand.New(rand.NewSource(seed)), int(length%4096))
		p := newSeenPair(t)
		for p.step(prog) {
			p.checkAll()
		}
	})
}

// seenBenchRings and seenBenchDigests shape BenchmarkHotpathSeenRing:
// 256 senders' rings touched round robin, each handed a digest it does
// not hold (every ring cycles through 256 digests, four windows' worth).
const seenBenchRings = 256

func seenBenchDigests() []digest.Digest {
	out := make([]digest.Digest, seenBenchRings*4*dedupWindow)
	for i := range out {
		out[i] = digest.Sum(binary.LittleEndian.AppendUint32(nil, uint32(i)))
	}
	return out
}

// BenchmarkHotpathSeenRing prices the idempotent-receive guard per
// fresh digest, as onAnnounceBatch pays it: the lookup that misses,
// then the record. Every ring is full before the clock starts.
// BenchmarkSeenRingReference runs the same loop on the map-backed
// reference.
func BenchmarkHotpathSeenRing(b *testing.B) {
	ds := seenBenchDigests()
	rings := make([]*seenRing, seenBenchRings)
	for i := range rings {
		rings[i] = new(seenRing)
	}
	for i := range seenBenchRings * dedupWindow {
		rings[i%seenBenchRings].record(ds[i : i+1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		j := (i + seenBenchRings*dedupWindow) % len(ds)
		r := rings[i%seenBenchRings]
		if !r.holds(ds[j], 0) {
			r.record(ds[j : j+1])
		}
	}
}

func BenchmarkSeenRingReference(b *testing.B) {
	ds := seenBenchDigests()
	rings := make([]*seenRingReference, seenBenchRings)
	for i := range rings {
		rings[i] = newSeenRingReference()
	}
	for i := range seenBenchRings * dedupWindow {
		rings[i%seenBenchRings].add(ds[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		r, d := rings[i%seenBenchRings], ds[(i+seenBenchRings*dedupWindow)%len(ds)]
		if !r.has(d) {
			r.add(d)
		}
	}
}
