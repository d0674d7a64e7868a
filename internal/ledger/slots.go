package ledger

// slotTable is the open-addressed table under H_i's and S_i's digest
// indexes. A slot is one uint64: the tag of a 64-bit digest key in the
// high half, a 32-bit value in the low half (an entry id for H_i, a
// sequence number for S_i). The table stores no digest and no pointer,
// so the garbage collector never scans it; the full digest sits in the
// header the value names, and every caller confirms a hit against it.
//
// The tag is the key's low 32 bits with the top bit forced, so no slot
// is 0 and 0 marks an empty slot. A tag's home slot is its low bits;
// collisions probe linearly, and the table doubles before it passes
// 3/4 load. Deletion shifts the rest of the probe run back instead of
// leaving tombstones.
//
// Within one tag, probe order is insertion order. An insertion lands
// past every slot of its home's run; a backward-shift delete only ever
// moves a slot to an earlier hole that the earlier slots of its tag
// would take first; and grow re-inserts the old slots in probe order,
// starting from an empty slot so no run is cut in two. So find's first
// accepted value is the earliest inserted one it accepts, with no need
// to scan the rest of the run.
type slotTable struct {
	slots []uint64 // nil, or a power of two long
	used  int
}

// minSlots is the length of a table's first allocation.
const minSlots = 8

func newSlotTable() slotTable { return slotTable{slots: make([]uint64, minSlots)} }

// slotTag returns the high half of key's slots.
func slotTag(key uint64) uint64 { return uint64(uint32(key) | 1<<31) }

func (t *slotTable) mask() uint64 { return uint64(len(t.slots) - 1) }

// find returns the first value stored under key's tag, in insertion
// order, that ok accepts.
func (t *slotTable) find(key uint64, ok func(v uint32) bool) (uint32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	tag, mask := slotTag(key), t.mask()
	for i := tag & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == tag && ok(uint32(s)) {
			return uint32(s), true
		}
	}
}

// insert stores v under key's tag, after every slot already there,
// unless one of those holds a value dup accepts. It reports whether it
// stored v.
func (t *slotTable) insert(key uint64, v uint32, dup func(v uint32) bool) bool {
	tag := slotTag(key)
	if len(t.slots) > 0 {
		mask := t.mask()
		for i := tag & mask; ; i = (i + 1) & mask {
			s := t.slots[i]
			if s == 0 {
				if 4*(t.used+1) > 3*len(t.slots) {
					break // grow first
				}
				t.slots[i] = tag<<32 | uint64(v)
				t.used++
				return true
			}
			if s>>32 == tag && dup(uint32(s)) {
				return false
			}
		}
	}
	t.grow()
	t.place(tag<<32 | uint64(v))
	t.used++
	return true
}

// remove deletes the slot holding v under key's tag, if there is one.
func (t *slotTable) remove(key uint64, v uint32) {
	if len(t.slots) == 0 {
		return
	}
	tag, mask := slotTag(key), t.mask()
	want := tag<<32 | uint64(v)
	for i := tag & mask; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case 0:
			return
		case want:
			t.deleteAt(i)
			return
		}
	}
}

// deleteAt empties slot i and closes the gap: each later slot of the
// run whose home is not between the gap and itself moves back into the
// gap, which moves on to where it was.
func (t *slotTable) deleteAt(i uint64) {
	mask := t.mask()
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := t.slots[j] >> 32 & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.used--
}

// place stores s in the first empty slot of its probe run.
func (t *slotTable) place(s uint64) {
	mask := t.mask()
	i := s >> 32 & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the table. It re-inserts the old slots in probe order
// from an empty one, which keeps each tag's slots in insertion order.
func (t *slotTable) grow() {
	old := t.slots
	t.slots = make([]uint64, max(minSlots, 2*len(old)))
	start := 0
	for start < len(old) && old[start] != 0 {
		start++
	}
	for k := range old {
		if s := old[(start+k)&(len(old)-1)]; s != 0 {
			t.place(s)
		}
	}
}
