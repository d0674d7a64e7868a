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
// entries, two maps from a 64-bit digest key to an entry id, and one
// link word per Δ reference. Map keys and values hold no pointers, so
// the garbage collector never scans the maps. A key is a digest prefix
// and only narrows the search: every lookup compares the full 32-byte
// digest before it returns a header, so two digests sharing a key cost
// an extra comparison, never a wrong answer.
type TrustStore struct {
	mu sync.RWMutex

	// entries[head:] are the live headers, oldest-inserted first. The
	// ring serves two masters: the FIFO bound (capLimit > 0) evicts
	// from head — the scale runs cap H_i so ten-thousand-validator
	// simulations stay bounded — and the checkpoint serializes headers
	// in this order so a restored store reproduces ChildOf's
	// earliest-inserted-wins choices exactly. An entry's id is
	// base + its index; ids (unlike indexes) survive the compaction
	// that drops the evicted prefix, and all id arithmetic is modulo
	// 2^32, so only the live window has to fit in 32 bits.
	entries []trustEntry
	head    int
	base    uint32

	// byHash maps a header-hash key to the oldest live entry with that
	// key; trustEntry.hashNext chains the rest.
	byHash map[uint64]uint32
	// children maps a referenced-digest key to the chain of live
	// entries whose Δ holds a digest with that key, in insertion
	// order. The chain runs through links: links[e.link+k] belongs to
	// e.hdr.Digests[k] and holds the distance, in ids, from e to the
	// next entry on that reference's chain (0 = last). Of several
	// references of one header sharing a key, the first carries the
	// link (chainSlot). FIFO eviction removes the oldest live entry,
	// which is therefore the head of every chain it is on: eviction
	// pops O(|Δ|) heads and never searches a chain.
	children map[uint64]childChain
	links    []uint32
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

// trustEntry is one slot of the ring.
type trustEntry struct {
	hdr *block.Header // nil once evicted
	// link is the offset in TrustStore.links of this header's
	// per-reference links.
	link uint32
	// hashNext is the distance, in ids, to the next live entry whose
	// header hash shares this one's key (0 = none).
	hashNext uint32
}

// childChain names the two ends of one children chain by entry id.
type childChain struct{ head, tail uint32 }

// NewTrustStore returns an empty H_i.
func NewTrustStore() *TrustStore {
	return &TrustStore{
		byHash:   make(map[uint64]uint32),
		children: make(map[uint64]childChain),
		keyMask:  ^uint64(0),
	}
}

func (t *TrustStore) key(d *digest.Digest) uint64 {
	return digestKey(d) & t.keyMask
}

func (t *TrustStore) at(id uint32) *trustEntry { return &t.entries[id-t.base] }

// chainSlot returns the reference of h that carries its link on the
// chain of key rk: the first non-zero one whose digest has that key.
func (t *TrustStore) chainSlot(h *block.Header, rk uint64) uint32 {
	for k := range h.Digests {
		d := &h.Digests[k].Digest
		if t.key(d) == rk && !d.IsZero() {
			return uint32(k)
		}
	}
	panic("ledger: trust chain holds a header without a matching reference")
}

// findLocked walks the hash chain of hh's key. It returns the live
// header hashing to hh, or nil and — when chained — the id of the
// chain's last entry, where a new header with that key links in.
func (t *TrustStore) findLocked(hh digest.Digest) (h *block.Header, tail uint32, chained bool) {
	id, ok := t.byHash[t.key(&hh)]
	if !ok {
		return nil, 0, false
	}
	for {
		e := t.at(id)
		if e.hdr.Hash() == hh {
			return e.hdr, id, true
		}
		if e.hashNext == 0 {
			return nil, id, true
		}
		id += e.hashNext
	}
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
	dup, tail, chained := t.findLocked(hh)
	if dup != nil {
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
	t.entries = append(t.entries, trustEntry{hdr: cp, link: uint32(len(t.links))})
	if chained {
		t.at(tail).hashNext = id - tail
	} else {
		t.byHash[t.key(&hh)] = id
	}
	for k := range cp.Digests {
		t.links = append(t.links, 0)
		d := &cp.Digests[k].Digest
		if d.IsZero() {
			continue
		}
		t.totalRefs++
		rk := t.key(d)
		c, ok := t.children[rk]
		switch {
		case !ok:
			c.head = id
		case c.tail == id:
			// An earlier reference of this header shares the key and
			// already put it on the chain.
			continue
		default:
			last := t.at(c.tail)
			t.links[last.link+t.chainSlot(last.hdr, rk)] = id - c.tail
		}
		c.tail = id
		t.children[rk] = c
	}
	if t.capLimit > 0 {
		for len(t.entries)-t.head > t.capLimit {
			t.evictOldestLocked()
		}
	}
	// Drop the evicted prefix once it dominates, so the backing arrays
	// don't grow with total insertions.
	if t.head > len(t.entries)/2 && t.head > t.capLimit && t.head > 64 {
		t.compactLocked()
	}
	return true
}

// evictOldestLocked removes entries[head], the oldest live header,
// from both indexes. Caller holds t.mu for writing.
func (t *TrustStore) evictOldestLocked() {
	e := &t.entries[t.head]
	id := t.base + uint32(t.head)
	hh := e.hdr.Hash()
	if hk := t.key(&hh); e.hashNext == 0 {
		delete(t.byHash, hk)
	} else {
		t.byHash[hk] = id + e.hashNext
	}
	for k := range e.hdr.Digests {
		d := &e.hdr.Digests[k].Digest
		if d.IsZero() {
			continue
		}
		t.totalRefs--
		rk := t.key(d)
		c, ok := t.children[rk]
		if !ok || c.head != id {
			// An earlier reference of this header shared the key and
			// already popped it.
			continue
		}
		if next := t.links[e.link+uint32(k)]; next == 0 {
			delete(t.children, rk)
		} else {
			c.head = id + next
			t.children[rk] = c
		}
	}
	e.hdr = nil
	t.head++
}

// compactLocked slides the live window to the front of the ring and of
// links. Ids are unchanged (base advances); link offsets shift.
func (t *TrustStore) compactLocked() {
	shift := uint32(len(t.links))
	if t.head < len(t.entries) {
		shift = t.entries[t.head].link
	}
	t.links = append(t.links[:0], t.links[shift:]...)
	n := copy(t.entries, t.entries[t.head:])
	clear(t.entries[n:]) // release the moved-from slots' headers
	t.entries = t.entries[:n]
	for i := range t.entries {
		t.entries[i].link -= shift
	}
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
	for i := range live {
		dst = appendFramed(dst, block.AppendEncodeHeader, live[i].hdr)
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
	for i := range live {
		hh := live[i].hdr.Hash()
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
	h, _, _ := t.findLocked(headerHash)
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
	rk := t.key(&d)
	c, ok := t.children[rk]
	if !ok {
		return nil, false
	}
	// The chain is in insertion order, so the first header on it that
	// really contains d is the earliest inserted; one that only shares
	// the key is stepped over.
	for id := c.head; ; {
		e := t.at(id)
		if e.hdr.Contains(d) {
			return e.hdr, true
		}
		next := t.links[e.link+t.chainSlot(e.hdr, rk)]
		if next == 0 {
			return nil, false
		}
		id += next
	}
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
