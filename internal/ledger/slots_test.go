package ledger

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// slotReference is the model slotTable must be indistinguishable from:
// every stored slot in one slice, in insertion order.
type slotReference struct{ slots []uint64 }

func (r *slotReference) insert(key uint64, v uint32, dup func(uint32) bool) bool {
	tag := slotTag(key)
	for _, s := range r.slots {
		if s>>32 == tag && dup(uint32(s)) {
			return false
		}
	}
	r.slots = append(r.slots, tag<<32|uint64(v))
	return true
}

func (r *slotReference) find(key uint64, ok func(uint32) bool) (uint32, bool) {
	tag := slotTag(key)
	for _, s := range r.slots {
		if s>>32 == tag && ok(uint32(s)) {
			return uint32(s), true
		}
	}
	return 0, false
}

func (r *slotReference) remove(key uint64, v uint32) {
	if i := slices.Index(r.slots, slotTag(key)<<32|uint64(v)); i >= 0 {
		r.slots = slices.Delete(r.slots, i, i+1)
	}
}

// values returns tag's values in insertion order.
func (r *slotReference) values(tag uint64) []uint32 {
	var out []uint32
	for _, s := range r.slots {
		if s>>32 == tag {
			out = append(out, uint32(s))
		}
	}
	return out
}

// probeValues returns tag's values in the order find meets them: its
// probe run from its home slot.
func probeValues(t *slotTable, tag uint64) []uint32 {
	if len(t.slots) == 0 {
		return nil
	}
	var out []uint32
	mask := t.mask()
	for i := tag & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if t.slots[i]>>32 == tag {
			out = append(out, uint32(t.slots[i]))
		}
	}
	return out
}

// tagsCollided reports whether two slots of t share a tag.
func tagsCollided(t *slotTable) bool {
	seen := make(map[uint64]bool)
	for _, s := range t.slots {
		if s != 0 {
			if seen[s>>32] {
				return true
			}
			seen[s>>32] = true
		}
	}
	return false
}

// slotPair drives a slotTable and the reference through one program.
type slotPair struct {
	t       testing.TB
	got     slotTable
	want    slotReference
	wrapped bool // some probe run ran past the table's end
	deleted bool // some remove shifted a later slot back
	grown   int  // how many times the table doubled
}

// check compares every observable and the table's own invariants: the
// slot count, the load bound, every slot reachable from its home with
// no empty slot between, and each tag's values in insertion order.
func (p *slotPair) check() {
	p.t.Helper()
	g := &p.got
	if g.used != len(p.want.slots) {
		p.t.Fatalf("table holds %d slots, reference %d", g.used, len(p.want.slots))
	}
	if len(g.slots) == 0 {
		return
	}
	if len(g.slots)&(len(g.slots)-1) != 0 || 4*g.used > 3*len(g.slots) {
		p.t.Fatalf("%d slots used of %d", g.used, len(g.slots))
	}
	mask, n := g.mask(), 0
	for i, s := range g.slots {
		if s == 0 {
			continue
		}
		n++
		home := s >> 32 & mask
		if home > uint64(i) {
			p.wrapped = true
		}
		for j := home; j != uint64(i); j = (j + 1) & mask {
			if g.slots[j] == 0 {
				p.t.Fatalf("slot %d (home %d) sits past the empty slot %d", i, home, j)
			}
		}
	}
	if n != g.used {
		p.t.Fatalf("%d non-empty slots, used says %d", n, g.used)
	}
	tags := make(map[uint64]bool)
	for _, s := range p.want.slots {
		tags[s>>32] = true
	}
	for tag := range tags {
		if got, want := probeValues(g, tag), p.want.values(tag); !slices.Equal(got, want) {
			p.t.Fatalf("tag %#x: probe order %v, insertion order %v", tag, got, want)
		}
	}
}

// step runs one operation read from prog; false means the program is
// over. Keys come from a byte, so homes spread over small tables and
// collide often; the high half of a key, which the tag drops, is noise.
// Values come from a byte too, so dup and ok predicates that compare
// values modulo a small number match more than one slot.
func (p *slotPair) step(prog *trustProgram) bool {
	op, ok := prog.next()
	if !ok {
		return false
	}
	key := uint64(prog.arg()) | uint64(prog.arg())<<32
	v := uint32(prog.arg())
	m := uint32(1 + op>>5) // 1..8
	switch op % 4 {
	case 0, 1:
		dup := func(x uint32) bool { return x == v }
		if op&0x10 != 0 {
			dup = func(x uint32) bool { return x%m == v%m }
		}
		before := len(p.got.slots)
		if got, want := p.got.insert(key, v, dup), p.want.insert(key, v, dup); got != want {
			p.t.Fatalf("insert(%#x, %d) = %v, reference %v", key, v, got, want)
		}
		if len(p.got.slots) != before {
			p.grown++
		}
	case 2:
		// Remove a stored slot most of the time, an absent one otherwise.
		if n := len(p.want.slots); n > 0 && op&0x10 == 0 {
			s := p.want.slots[int(v)%n]
			key, v = s>>32, uint32(s)
		}
		before := slices.Clone(p.got.slots)
		p.got.remove(key, v)
		p.want.remove(key, v)
		for i := range before {
			// A slot that changed without emptying was shifted back.
			if before[i] != 0 && p.got.slots[i] != 0 && before[i] != p.got.slots[i] {
				p.deleted = true
			}
		}
	default:
		accept := func(x uint32) bool { return x%m == v%m }
		g, gok := p.got.find(key, accept)
		w, wok := p.want.find(key, accept)
		if g != w || gok != wok {
			p.t.Fatalf("find(%#x, %% %d == %d) = %d %v, reference %d %v", key, m, v%m, g, gok, w, wok)
		}
	}
	return true
}

// TestSlotTableMatchesReference drives the table and the reference
// with seeded streams, compares them after every operation, and
// requires the streams to have grown the table, wrapped a probe run
// past its end and shifted a slot back on a delete inside a run.
func TestSlotTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := &slotPair{t: t}
			prog := &trustProgram{code: randomTrustProgram(rand.New(rand.NewSource(seed)), 4096)}
			for p.step(prog) {
				p.check()
			}
			if p.grown < 3 || !p.wrapped || !p.deleted {
				t.Fatalf("stream grew the table %d times, wrapped %v, shifted on delete %v", p.grown, p.wrapped, p.deleted)
			}
		})
	}
}

// TestSlotTableWrapAndShift spells out the cases by hand in an
// eight-slot table: a run that wraps past the end, a delete inside it
// that shifts a slot of another home back, and a grow that keeps each
// tag's slots in insertion order.
func TestSlotTableWrapAndShift(t *testing.T) {
	tab := newSlotTable()
	same := func(v uint32) func(uint32) bool { return func(x uint32) bool { return x == v } }
	for _, v := range []uint32{1, 2, 3} {
		tab.insert(7, v, same(v)) // home 7: slots 7, 0, 1
	}
	tab.insert(0, 9, same(9)) // home 0, pushed to slot 2
	if tab.insert(7, 2, same(2)) {
		t.Fatal("a slot already stored was stored again")
	}
	tag7, tag0 := slotTag(7), slotTag(0)
	want := []uint64{tag7<<32 | 2, tag7<<32 | 3, tag0<<32 | 9, 0, 0, 0, 0, tag7<<32 | 1}
	if !slices.Equal(tab.slots, want) {
		t.Fatalf("slots %#x, want %#x", tab.slots, want)
	}
	tab.remove(7, 2) // slot 0: value 3 shifts back to 0, value 9 to 1
	want = []uint64{tag7<<32 | 3, tag0<<32 | 9, 0, 0, 0, 0, 0, tag7<<32 | 1}
	if !slices.Equal(tab.slots, want) || tab.used != 3 {
		t.Fatalf("after the delete: slots %#x (used %d), want %#x", tab.slots, tab.used, want)
	}
	if v, ok := tab.find(0, func(uint32) bool { return true }); !ok || v != 9 {
		t.Fatalf("find(0) = %d %v after the shift, want 9", v, ok)
	}
	tab.remove(0, 4) // absent: nothing moves
	if !slices.Equal(tab.slots, want) {
		t.Fatalf("removing an absent slot moved %#x", tab.slots)
	}
	// Fill to the load bound and past it: the run that wrapped is
	// re-inserted from an empty slot, in order.
	for v := uint32(10); tab.used < 7; v++ {
		tab.insert(uint64(v), v, same(v))
	}
	if len(tab.slots) != 16 {
		t.Fatalf("%d slots after %d inserts, want 16", len(tab.slots), tab.used)
	}
	if got := probeValues(&tab, tag7); !slices.Equal(got, []uint32{1, 3}) {
		t.Fatalf("tag 7 after growing: %v, want [1 3]", got)
	}
}

// FuzzSlotTableMatchesReference lets the fuzzer write the program.
func FuzzSlotTableMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomTrustProgram(rand.New(rand.NewSource(seed)), 1024))
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		p := &slotPair{t: t}
		prog := &trustProgram{code: code}
		for p.step(prog) {
			p.check()
		}
	})
}
