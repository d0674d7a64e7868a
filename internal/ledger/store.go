// Package ledger holds the per-node state of 2LDAG (paper Sec. III):
//
//   - Store — S_i, the append-only log of the node's own data blocks.
//     2LDAG nodes never store other nodes' blocks, which is the source
//     of its storage advantage over chain/DAG blockchains.
//   - DigestCache — A_i, the latest header digest received from each
//     neighbor, merged into the Δ field of the next block.
//   - TrustStore — H_i, headers the node has already verified via PoP,
//     indexed so the Trust Path Selection algorithm (Alg. 2) can extend
//     paths without any network traffic.
//
// # Shared-reference reads
//
// Store and TrustStore hold immutable, header-sealed blocks and
// headers (see the block package doc) and hand them out by shared
// reference: Get, Latest, OldestContaining, Serve, Headers,
// TrustStore.Get and ChildOf return pointers into the store, not
// copies. Callers must treat the results as read-only; anyone who
// needs to mutate one (e.g. the attack library forging a reply) must
// take a block.Clone/Header.Clone first. This removes the O(C) body
// copy that used to sit on every REQ_CHILD/GetBlock hop. A sealed
// block has one owner — the log of the device that sealed it — and is
// found by (origin, sequence number); nothing in the protocol looks a
// block up by its own hash, so no store keeps a hash → block map.
//
// One exception, on a durable node: once the commit window that logged
// a block has fsynced, the block lives only on disk — in the log until a
// compaction copies its record into the owner's segment (see
// FileBackend), in the segment from then on — and S_i keeps of it only
// its header hash, its body root and where its record sits (bodies.go)
// — of the newest block, for Latest, the header too. A read that needs
// the block or its header reads the record back, every time: Get
// returns a fresh read-only block, header and body decoded from the
// record, with no body-root memo, so whoever validates it hashes that
// body; Headers returns fresh headers; OldestContaining and Serve hand a
// responder the record's encoding as it stands (Served), which its reply
// frame carries without a Block being built. Each holds the record's
// header bytes to the kept hash first, so a damaged or substituted
// record is ErrBadSegment, never another block; a closed segment or log
// fails the read.
//
// Blocks built by block.Params.Build are fully sealed (body root
// memoized too). A block appended unsealed — e.g. decoded from the
// wire — keeps only the header seal, because the store does not
// know the Merkle leaf size; callers that hold the Params can run
// Params.SealBlock before Append to memoize the body root as well.
//
// # Index footprint
//
// The paper's storage claim is that a device holds its own blocks and,
// for everyone else, only fingerprints, so the indexes around S_i and
// H_i are kept smaller than what they index and free of pointers (the
// garbage collector never scans them). Each structure has one layout,
// whoever builds it: a flat table of 8-byte slots (slotTable), each the
// 32-bit tag of a digest's 64-bit key beside a 32-bit sequence number
// or entry id, probed linearly from the tag's home slot. Store keeps
// one such table, built on the first responder query; TrustStore keeps
// an insertion-ordered ring of header pointers and two tables (see the
// types). A tag only narrows the search. The full 32-byte digests
// already sit in the headers the stores hold, so the tables never
// repeat them, and every lookup compares against them before it
// answers: two digests sharing a tag cost an extra comparison, never a
// wrong block. A slot costs ~14 B of table per reference once the load
// (3/8 to 3/4) is counted. TestStoreIndexBytesPerBlock and
// TestTrustStoreIndexBytesPerHeader hold both to a byte ceiling.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Sentinel errors.
var (
	ErrWrongOrigin = errors.New("ledger: block origin does not match store owner")
	ErrBadSeq      = errors.New("ledger: block sequence out of order")
	ErrNotFound    = errors.New("ledger: block not found")
)

// digestKey is the 64-bit index key of a digest: its first eight
// bytes. Digests are uniform hashes, so any eight would do.
func digestKey(d *digest.Digest) uint64 { return binary.LittleEndian.Uint64(d[:8]) }

// Store is S_i: the append-only log of one node's own blocks, with an
// index answering the responder query of Algorithm 4 — "the oldest of my
// blocks whose Δ contains digest d".
//
// Every store keeps the same state: the ordered log and one responder
// index, built from the log on the first responder query and kept
// current by Append from then on, so a node nobody audits (and a
// zero-audit scaling run of 10k–100k stores) never pays for it. The
// index is fingerprint-sized — one 8-byte slot per distinct referenced
// digest: its key's tag and the sequence number of the oldest block
// whose Δ holds it — because the log already stores every referenced
// digest in full inside its own headers: a hit is confirmed against the
// answering block's Δ before it is returned. Slots hold no pointers.
//
// One lock guards the log and the index. Append holds it across the
// journal write (that is what keeps journal order equal to apply order
// and lets a compaction's gather see every block its rotated WAL
// holds), so on a durable node a responder query, like Get, waits out
// an append's fsync. On a durable node the index's build reads every
// header but the newest back, and each hit it confirms against a block
// S_i let go of reads that block's record (under the read lock); Get
// and Serve read theirs unlocked.
type Store struct {
	mu        sync.RWMutex
	owner     identity.NodeID
	blocks    []*block.Block
	bodyBytes int64
	refCount  int64 // Σ len(Header.Digests) over the log, for O(1) ModelBits

	// index is the responder index, unallocated until the first
	// responder query builds it: one slot (see slotTable) per distinct
	// referenced digest, holding its key's tag and the sequence number
	// of the oldest block whose Δ holds it. Only the oldest is ever
	// asked for (Alg. 4 wants exactly that block), and blocks are
	// indexed in ascending sequence order, so a slot is written once and
	// never updated.
	index slotTable
	// unreadErr is the error of the first block, firstUnread, whose
	// header the index's last build could not read back from the
	// segment; nil when it read them all. The digests of that block and
	// of any later unread one are not in the index, so an answer younger
	// than firstUnread, or none, may not be the oldest.
	firstUnread uint32
	unreadErr   error
	// keyMask is all ones; tests narrow it to force key collisions.
	keyMask uint64

	// journal, when set, durably records every append before it is
	// published (write-ahead). nil = in-memory only.
	journal Journal

	// seg, on a durable node, is where the blocks S_i lets go of once the
	// owner's segment holds them are read back from, and what S_i keeps
	// of each (see bodies.go); wal is what it keeps of the blocks after
	// those whose records only the log holds, block len(seg.recs)+i's
	// at wal[i]. blocks[i] is nil for all of them but the newest. Blocks
	// S_i holds whole follow them. nil in memory.
	seg *segment
	wal []loggedBlock
}

// NewStore creates an empty log owned by the given node.
func NewStore(owner identity.NodeID) *Store {
	return &Store{owner: owner, keyMask: ^uint64(0)}
}

// Owner returns the owning node's ID.
func (s *Store) Owner() identity.NodeID { return s.owner }

// SetJournal installs a durability journal: every subsequent Append
// logs the sealed block (and fsyncs, for FileBackend) before the block
// becomes visible, and a journal error fails the append. Install
// before the store sees traffic; blocks appended earlier are the
// recovery layer's concern (segment and checkpoint), not the journal's.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// Append adds the node's next block. The block must belong to the owner
// and continue the sequence (genesis = 0).
//
// A sealed block (block.Params.Build output) is stored by reference —
// the caller keeps read access but must not mutate it afterwards. An
// unsealed block (e.g. decoded from the wire) is defensively copied
// and header-sealed, so the caller's value stays mutable; run
// block.Params.SealBlock first to carry a body-root memo too. On a
// durable node whose journal leaves the record readable in its log, S_i
// keeps the block as bodies.go says from the moment it is durable.
func (s *Store) Append(b *block.Block) error { return s.append(b, walSpan{}) }

// append is Append for a block whose record the log holds at logged,
// when that names a generation: one WAL replay restores. A journal
// names the span of the record it logs itself (Journal.logBlock), the
// zero span when it keeps none readable. Either way S_i
// keeps a loggedBlock of the block and holds it without its body, unless
// it holds an older block whole (it appended that one without a span).
func (s *Store) append(b *block.Block, logged walSpan) error {
	if b.Header.Origin != s.owner {
		return fmt.Errorf("%w: %v vs %v", ErrWrongOrigin, b.Header.Origin, s.owner)
	}
	cp := b
	if !b.Sealed() {
		cp = b.Clone()
	}
	// Seal outside the lock: the memoizing Hash call must not race with
	// readers of already-stored blocks, and cp is still private here.
	cp.Header.Seal()
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(cp.Header.Seq) != len(s.blocks) {
		return fmt.Errorf("%w: seq %d, want %d", ErrBadSeq, cp.Header.Seq, len(s.blocks))
	}
	// Write-ahead: the block is durable (logged + fsynced) before it
	// becomes visible to any reader. Logging under s.mu makes journal
	// order exactly apply order, which is what lets WAL replay
	// reconstruct the log byte for byte.
	if s.journal != nil {
		var err error
		if logged, err = s.journal.logBlock(s, cp); err != nil {
			return fmt.Errorf("ledger: journaling block %v#%d: %w", s.owner, cp.Header.Seq, err)
		}
	}
	held := cp
	if logged.gen != nil && s.recordedLocked() == len(s.blocks) {
		s.wal = append(s.wal, loggedBlock{hash: cp.Header.Hash(), root: digestRoot(cp), walSpan: logged})
		held = cp.WithoutBody()
	}
	s.blocks = append(s.blocks, held)
	s.bodyBytes += int64(len(cp.Body))
	s.refCount += int64(len(cp.Header.Digests))
	prev := len(s.blocks) - 2
	if s.index.slots != nil {
		var ph *block.Header
		if prev >= 0 {
			ph = &s.blocks[prev].Header // the newest until now: held
		}
		s.indexContains(&cp.Header, ph)
	}
	if prev >= 0 && prev < s.recordedLocked() {
		s.blocks[prev] = nil // no longer the newest: its record is kept
	}
	return nil
}

// indexContains folds one block's header h, the block already in the
// log, into the responder index: a slot for each digest of its Δ that
// no older block (nor an earlier reference of its own) holds. prev is
// the header of the block before h, already indexed, or nil. Most of
// Δ is in prev's too, at the same position — a neighbour's digest stays
// in Δ until it seals again, for as long as it stays silent, and Δ
// lists the neighbours in a fixed order (DigestCache.AppendSnapshot) —
// so an older block holds those, and they cost no probe and no segment
// read. Any other older block a probe meets is read back, and one whose
// record cannot be counts as not holding the digest: the slot that
// adds is never the first of its tag to answer. Caller holds s.mu for
// writing.
func (s *Store) indexContains(h, prev *block.Header) {
	for k := range h.Digests {
		d := h.Digests[k].Digest
		if d.IsZero() || prev != nil && k < len(prev.Digests) && prev.Digests[k].Digest == d {
			continue
		}
		s.index.insert(digestKey(&d)&s.keyMask, h.Seq, func(seq uint32) bool {
			switch {
			case seq == h.Seq:
				return true // an earlier entry of h's Δ: h holds d
			case prev != nil && seq == prev.Seq:
				return prev.Contains(d)
			}
			v, err := s.headerLocked(seq)
			return err == nil && v.contains(d)
		})
	}
}

// rlockIndexed takes the read lock with the responder index in place,
// building it from the log on the first query; steady-state queries
// never take the write lock.
func (s *Store) rlockIndexed() {
	s.mu.RLock()
	for s.index.slots == nil {
		s.mu.RUnlock()
		s.mu.Lock()
		if s.index.slots == nil {
			s.buildIndex()
		}
		s.mu.Unlock()
		s.mu.RLock()
	}
}

// buildIndex builds the responder index from the log, reading each
// header S_i let go of back once. A block whose header cannot be read
// back is left out; the first sets firstUnread. Caller holds s.mu for
// writing.
func (s *Store) buildIndex() {
	s.index, s.unreadErr = newSlotTable(), nil
	var prev *block.Header
	for seq := range s.blocks {
		v, err := s.headerLocked(uint32(seq))
		var h *block.Header
		if err == nil {
			h, err = v.Header()
		}
		if err != nil {
			if s.unreadErr == nil {
				s.firstUnread, s.unreadErr = uint32(seq), err
			}
			prev = nil
			continue
		}
		s.indexContains(h, prev)
		prev = h
	}
}

// Len returns |S_i|.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Get returns the (read-only) block with the given sequence number:
// the stored, sealed block, or — for one S_i let go of — a fresh block
// read back from its record (see bodies.go). A record that is not
// that block's is ErrBadSegment.
func (s *Store) Get(seq uint32) (*block.Block, error) {
	b, rr, err := s.at(seq)
	if err != nil || b != nil {
		return b, err
	}
	if b, err = rr.block(); err != nil && s.moved(rr) {
		return s.Get(seq)
	}
	return b, err
}

// Serve is Get as a responder replies with it: the stored block, or the
// encoding of one S_i let go of, read back from its record (Served).
func (s *Store) Serve(seq uint32) (Served, error) {
	b, rr, err := s.at(seq)
	if err != nil || b != nil {
		return Served{Block: b}, err
	}
	v, err := rr.encoded()
	if err != nil && s.moved(rr) {
		return s.Serve(seq)
	}
	return v, err
}

// moved reports whether the block rr was read for sits elsewhere now: a
// compaction copied its record from the log to the segment, or S_i
// holds it whole again (holdWhole), while an unlocked read was under
// way, and may have closed the generation that read failed on. A block
// moves once, so the read it calls for again reads the segment or the
// held block.
func (s *Store) moved(rr blockRecord) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(rr.ref.Seq) >= s.recordedLocked() || s.recordLocked(rr.ref.Seq) != rr
}

// at returns the stored block seq, or — for one S_i let go of — its
// record to read back, which the caller reads without the lock.
func (s *Store) at(seq uint32) (*block.Block, blockRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(seq) >= len(s.blocks) {
		return nil, blockRecord{}, fmt.Errorf("%w: %v#%d", ErrNotFound, s.owner, seq)
	}
	if int(seq) < s.recordedLocked() {
		return nil, s.recordLocked(seq), nil
	}
	return s.blocks[seq], blockRecord{}, nil
}

// segmentedLocked is how many of the oldest blocks S_i keeps in its
// segment. Caller holds s.mu.
func (s *Store) segmentedLocked() int {
	if s.seg == nil {
		return 0
	}
	return len(s.seg.recs)
}

// recordedLocked is how many of the oldest blocks S_i has let go of:
// those its segment holds, then those only the log does. Caller holds
// s.mu.
func (s *Store) recordedLocked() int { return s.segmentedLocked() + len(s.wal) }

// recordLocked is the record of block seq, one S_i has let go of, to
// read back. Caller holds s.mu.
func (s *Store) recordLocked(seq uint32) blockRecord {
	if n := s.segmentedLocked(); int(seq) >= n {
		return s.wal[int(seq)-n].record(block.Ref{Node: s.owner, Seq: seq})
	}
	return s.seg.recordAt(s.owner, seq)
}

// headerLocked returns block seq's header as a responder query reads
// it: the stored block, or its record read back (see Served). Caller
// holds s.mu.
func (s *Store) headerLocked(seq uint32) (Served, error) {
	if b := s.blocks[seq]; b != nil {
		return Served{Block: b}, nil
	}
	return s.recordLocked(seq).encoded()
}

// Latest returns the (sealed, read-only) most recent block, or nil for
// an empty store. Once S_i has let go of it (bodies.go), it holds no
// body.
func (s *Store) Latest() *block.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.blocks) == 0 {
		return nil
	}
	return s.blocks[len(s.blocks)-1]
}

// OldestContaining implements the responder's selection rule (Alg. 4,
// Eq. 10–11): among the owner's blocks whose Δ contains d, the oldest,
// as a responder replies with it (Served: the stored block, or for one
// S_i let go of its record read back). No block matching is the bare
// ErrNotFound, so a miss allocates nothing; a record that cannot be
// read back fails the query, and so does a header the index's build
// could not read when it is older than the answer, or there is none.
// It walks d's probe run and checks the Δ of each block on file under
// d's tag: the first that holds d is its oldest, since a tag's slots
// are in sequence order.
func (s *Store) OldestContaining(d digest.Digest) (Served, error) {
	s.rlockIndexed()
	defer s.mu.RUnlock()
	// Contains is false for the zero digest, which is never indexed but
	// shares its tag with whatever digest happens to start with zeros.
	var hit Served
	var err error
	seq, ok := s.index.find(digestKey(&d)&s.keyMask, func(seq uint32) bool {
		hit, err = s.headerLocked(seq)
		return err != nil || hit.contains(d)
	})
	switch {
	case err != nil:
		return Served{}, err
	case s.unreadErr != nil && (!ok || s.firstUnread < seq):
		// A block the index could not read may hold d, and is older.
		return Served{}, s.unreadErr
	case !ok:
		return Served{}, ErrNotFound
	}
	return hit, nil
}

// BodyBytes returns the cumulative body payload stored, in bytes.
func (s *Store) BodyBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bodyBytes
}

// ModelBits returns the storage footprint of S_i under the paper's size
// model: Σ_blocks f_c + f_H·(|Δ|) + C, where |Δ| counts the digest
// entries (own-previous plus neighbors), matching Eq. 2's f_H·(n+1)
// term.
func (s *Store) ModelBits(m block.SizeModel) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The per-block terms only depend on each block's digest count, so
	// the running refCount makes this O(1) — scaling experiments call it
	// per node per sample point.
	return int64(len(s.blocks))*int64(m.ConstantBits()+m.C) + int64(m.FH)*s.refCount
}

// since returns the blocks after the first n, provided the n-th hashes
// to last: what a segment holding that prefix of this log lacks — first
// those only the log holds, as S_i keeps them, then those it holds
// whole. The results share the store's backing arrays, which Append
// never rewrites below their lengths, and segmented replaces. Blocks
// in the segment S_i reads back are the segment's already: n below them
// is an error.
func (s *Store) since(n uint32, last digest.Digest) ([]loggedBlock, []*block.Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seg, rec := s.segmentedLocked(), s.recordedLocked()
	if int(n) > len(s.blocks) || int(n) < seg || (n > 0 && s.hashLocked(n-1) != last) {
		return nil, nil, fmt.Errorf("ledger: the %d blocks of %v do not continue its segment of %d", len(s.blocks), s.owner, n)
	}
	return s.wal[min(int(n), rec)-seg : len(s.wal) : len(s.wal)], s.blocks[max(int(n), rec):len(s.blocks):len(s.blocks)], nil
}

// HashAt returns block seq's header hash, or false when S_i holds no
// block seq. It reads what S_i keeps in memory of every block, the
// ones it let go of included, and never the disk.
func (s *Store) HashAt(seq uint32) (digest.Digest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(seq) >= len(s.blocks) {
		return digest.Digest{}, false
	}
	return s.hashLocked(seq), true
}

// hashLocked is block seq's header hash. Caller holds s.mu.
func (s *Store) hashLocked(seq uint32) digest.Digest {
	if b := s.blocks[seq]; b != nil {
		return b.Header.Hash()
	}
	return s.recordLocked(seq).hash
}

// appendDigest appends S_i's state-digest branch under the read lock:
// the block count, then each block's header hash and body root M(body)
// under the default leaf size — the root memoized at seal time, or kept
// for a block S_i let go of, so no body is hashed again (recovery
// memoizes what it computes, whether or not it compared it to the
// header's Root).
func (s *Store) appendDigest(dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.blocks)))
	if s.seg != nil {
		for _, r := range s.seg.recs {
			dst = append(append(dst, r.hash[:]...), r.root[:]...)
		}
	}
	for _, w := range s.wal {
		dst = append(append(dst, w.hash[:]...), w.root[:]...)
	}
	for _, b := range s.blocks[s.recordedLocked():] {
		hh, root := b.Header.Hash(), digestRoot(b)
		dst = append(append(dst, hh[:]...), root[:]...)
	}
	return dst
}

// Headers returns the headers of S_i in sequence order: the stored
// (sealed, read-only) ones, and for blocks S_i let go of fresh ones
// read back from their records. A record that cannot be read back fails
// the call.
func (s *Store) Headers() ([]*block.Header, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*block.Header, len(s.blocks))
	for seq := range s.blocks {
		v, err := s.headerLocked(uint32(seq))
		if err == nil {
			out[seq], err = v.Header()
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
