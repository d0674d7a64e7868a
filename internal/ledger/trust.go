package ledger

import (
	"encoding/binary"
	"sync"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
)

// TrustStore is H_i: block headers a validator has already verified
// through PoP (paper Sec. IV-B). It answers two lookups:
//
//   - by header hash, to deduplicate; and
//   - by contained digest, so Trust Path Selection (Alg. 2) can answer
//     "do I already hold a child of the block hashing to d?" in O(1).
//
// Capped or not, the store has one layout, sized so the index around a
// header costs less than the header: an insertion-ordered ring of
// header pointers and two slot tables (see slotTable) of 8-byte slots,
// each a 64-bit digest key's tag and an entry id. byHash holds a slot
// per live header, children one per distinct key of each live header's
// Δ. A key only narrows the search: every lookup compares the full
// 32-byte digest before it returns a header, so two digests sharing a
// tag cost an extra comparison, never a wrong answer.
type TrustStore struct {
	mu sync.RWMutex

	// entries[head:] are the live headers, oldest-inserted first (nil
	// once evicted). The ring serves two masters: the FIFO bound
	// (capLimit > 0) evicts from head — the scale runs cap H_i so
	// ten-thousand-validator simulations stay bounded — and the
	// checkpoint serializes headers in this order so a restored store
	// reproduces ChildOf's earliest-inserted-wins choices exactly. An
	// entry's id is base + its index; ids (unlike indexes) survive the
	// compaction that drops the evicted prefix, and all id arithmetic is
	// modulo 2^32, so only the live window has to fit in 32 bits.
	entries []*block.Header
	head    int
	base    uint32

	// byHash holds one slot per live header: its hash's key and its id.
	byHash slotTable
	// children holds one slot per distinct non-zero key of each live
	// header's Δ, with the header's id. Ids grow with insertion, and a
	// tag's slots are in insertion order, so the first of them whose
	// header really holds a digest is its earliest-inserted child.
	children slotTable
	// keyMask is all ones; tests narrow it to force key collisions.
	keyMask uint64

	totalRefs int64
	capLimit  int
	// inserted counts successful Adds over the store's lifetime. It is
	// the insertion horizon durability needs: each journaled header
	// carries its index, checkpoints record the count at gather time, and
	// WAL replay skips records below it — re-adding a since-evicted
	// header would evict a different live one.
	inserted int64

	// journal, when set, durably records every newly added header.
	// nil = in-memory only.
	journal Journal
}

// NewTrustStore returns an empty H_i.
func NewTrustStore() *TrustStore {
	return &TrustStore{keyMask: ^uint64(0)}
}

func (t *TrustStore) key(d *digest.Digest) uint64 {
	return digestKey(d) & t.keyMask
}

func (t *TrustStore) at(id uint32) *block.Header { return t.entries[id-t.base] }

// findLocked returns the live header hashing to hh, or nil.
func (t *TrustStore) findLocked(hh digest.Digest) *block.Header {
	id, ok := t.byHash.find(t.key(&hh), func(id uint32) bool { return t.at(id).Hash() == hh })
	if !ok {
		return nil
	}
	return t.at(id)
}

// SetCap bounds H_i to at most n headers, evicting oldest-inserted
// first. Eviction order is a pure function of insertion order, so a
// capped store stays deterministic. n <= 0 restores the default
// unbounded behavior. Insertion order is always tracked, so a cap set
// on a populated store takes effect from the next Add on, evicting the
// oldest entries first.
func (t *TrustStore) SetCap(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.capLimit = n
}

// Cap returns the FIFO bound in force (0 = unbounded).
func (t *TrustStore) Cap() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.capLimit
}

// SetJournal installs a durability journal: every subsequent newly
// added header is logged (buffered; see FileBackend's fsync
// discipline) in insertion order. Install before the store sees
// traffic.
func (t *TrustStore) SetJournal(j Journal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journal = j
}

// Add stores a verified header. Duplicates are ignored (and detected
// before any copying). It returns true when the header was newly
// added. Sealed headers — immutable by contract everywhere in this
// codebase — are stored by shared reference, so the thousands of
// validators of a scaled simulation index the one header that sits in
// its owner's log instead of cloning it apiece; unsealed headers are
// defensively cloned.
func (t *TrustStore) Add(h *block.Header) bool {
	sealed := h.Sealed()
	hh := h.Hash()
	if t.Has(hh) {
		return false
	}
	cp := h
	if !sealed {
		cp = h.CloneSealed()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.findLocked(hh) != nil {
		return false
	}
	// Journal inside the lock so the logged order is exactly the
	// insertion order replay must reproduce; the index identifies this
	// insertion across checkpoint horizons. A journal error degrades
	// durability, never the live store: the backend keeps it sticky
	// and surfaces it on Sync/Close.
	if t.journal != nil {
		_ = t.journal.LogTrust(cp, t.inserted)
	}
	t.inserted++
	id := t.base + uint32(len(t.entries))
	t.entries = append(t.entries, cp)
	// A slot is the same whichever of a header's references put it
	// there, so a reference whose key an earlier one shares finds its
	// slot in place.
	same := func(v uint32) bool { return v == id }
	t.byHash.insert(t.key(&hh), id, same)
	for k := range cp.Digests {
		d := &cp.Digests[k].Digest
		if d.IsZero() {
			continue
		}
		t.totalRefs++
		t.children.insert(t.key(d), id, same)
	}
	if t.capLimit > 0 {
		for len(t.entries)-t.head > t.capLimit {
			t.evictOldestLocked()
		}
	}
	// Drop the evicted prefix once it dominates, so the ring doesn't
	// grow with total insertions.
	if t.head > len(t.entries)/2 && t.head > t.capLimit && t.head > 64 {
		t.compactLocked()
	}
	return true
}

// evictOldestLocked removes entries[head], the oldest live header,
// from both indexes. Caller holds t.mu for writing.
func (t *TrustStore) evictOldestLocked() {
	h := t.entries[t.head]
	id := t.base + uint32(t.head)
	hh := h.Hash()
	t.byHash.remove(t.key(&hh), id)
	for k := range h.Digests {
		d := &h.Digests[k].Digest
		if d.IsZero() {
			continue
		}
		t.totalRefs--
		// A second reference under an already-removed key finds nothing.
		t.children.remove(t.key(d), id)
	}
	t.entries[t.head] = nil
	t.head++
}

// compactLocked slides the live window to the front of the ring. Ids
// are unchanged: base advances.
func (t *TrustStore) compactLocked() {
	n := copy(t.entries, t.entries[t.head:])
	clear(t.entries[n:]) // release the moved-from slots' headers
	t.entries = t.entries[:n]
	t.base += uint32(t.head)
	t.head = 0
}

// Insertions returns the number of successful Adds over the store's
// lifetime (evicted headers included) — the replay horizon recorded in
// checkpoints and carried by every journaled trust record.
func (t *TrustStore) Insertions() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.inserted
}

// setInsertions restores the lifetime insertion count from a checkpoint.
func (t *TrustStore) setInsertions(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inserted = n
}

// appendHeaders appends H_i's checkpoint branch under the read lock:
// the insertion count, the live-header count and each live header,
// length-prefixed, in insertion order.
func (t *TrustStore) appendHeaders(dst []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.inserted))
	live := t.entries[t.head:]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(live)))
	for _, h := range live {
		dst = appendFramed(dst, block.AppendEncodeHeader, h)
	}
	return dst
}

// appendHashes appends H_i's state-digest branch under the read lock:
// appendHeaders with each header's hash in place of its encoding.
func (t *TrustStore) appendHashes(dst []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.inserted))
	live := t.entries[t.head:]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(live)))
	for _, h := range live {
		hh := h.Hash()
		dst = append(dst, hh[:]...)
	}
	return dst
}

// Has reports whether a header with the given hash is stored.
func (t *TrustStore) Has(headerHash digest.Digest) bool {
	_, ok := t.Get(headerHash)
	return ok
}

// Get returns the stored (sealed, read-only) header with the given
// hash.
func (t *TrustStore) Get(headerHash digest.Digest) (*block.Header, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := t.findLocked(headerHash)
	return h, h != nil
}

// ChildOf returns a stored (sealed, read-only) header whose Δ contains
// d — the TPS lookup of Eq. 9. When several qualify, the earliest
// inserted wins, which keeps path reconstruction deterministic.
func (t *TrustStore) ChildOf(d digest.Digest) (*block.Header, bool) {
	if d.IsZero() {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.children.find(t.key(&d), func(id uint32) bool { return t.at(id).Contains(d) })
	if !ok {
		return nil, false
	}
	return t.at(id), true
}

// Len returns the number of distinct headers in H_i.
func (t *TrustStore) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries) - t.head
}

// ModelBits returns the footprint of H_i under the paper's size model,
// matching Prop. 2's accounting: each header costs f_c + f_H·|Δ|. This
// is the model the figures print, not a measurement: what the process
// actually spends on H_i is part of the benchmark's live_heap_mb.
func (t *TrustStore) ModelBits(m block.SizeModel) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.entries)-t.head)*int64(m.ConstantBits()) + t.totalRefs*int64(m.FH)
}
