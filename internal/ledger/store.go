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
//   - Blacklist — the selfish-attack penalty mechanism of Sec. IV-D6.
//
// # Shared-reference reads
//
// Store and TrustStore hold immutable, header-sealed blocks and
// headers (see the block package doc) and hand them out by shared
// reference: Get, Latest, OldestContaining, Headers, TrustStore.Get
// and ChildOf return pointers into the store, not copies. Callers must
// treat the results as read-only; anyone who needs to mutate one (e.g.
// the attack library forging a reply) must take a
// block.Clone/Header.Clone first. This removes the O(C) body copy that
// used to sit on every REQ_CHILD/GetBlock hop. A sealed block has one
// owner — the log of the device that sealed it — and is found by
// (origin, sequence number); nothing in the protocol looks a block up
// by its own hash, so no store keeps a hash → block map.
//
// Blocks built by block.Params.Build are fully sealed (body root
// memoized too). A block appended unsealed — e.g. restored from a
// snapshot — keeps only the header seal, because the store does not
// know the Merkle leaf size; callers that hold the Params can run
// Params.SealBlock before Append to memoize the body root as well.
//
// # Index footprint
//
// The paper's storage claim is that a device holds its own blocks and,
// for everyone else, only fingerprints, so the indexes around S_i and
// H_i are kept smaller than what they index and free of pointers (the
// garbage collector never scans them). Each structure has one layout,
// whoever builds it, keyed by the first 64 bits of a digest: Store
// keeps one key → oldest-sequence map, built on the first responder
// query; TrustStore keeps an insertion-ordered ring with two such maps
// and per-reference links (see the types). A key only narrows the
// search. The full 32-byte digests already sit in the headers the
// stores hold, so the indexes never repeat them, and every lookup
// compares against them before it answers: two digests sharing a key
// cost an extra comparison, never a wrong block.
// TestStoreIndexBytesPerBlock and TestTrustStoreIndexBytesPerHeader
// hold both to a byte ceiling.
//
// # Immutable-prefix views
//
// Store is append-only, so any prefix of it is immutable forever.
// Store.ViewAt captures that as a first-class read view: a View fenced
// at length n answers Get/OldestContaining exactly as the store did
// when it held n blocks, regardless of concurrent appends. This is the
// contract the simulator's pipelined slot execution leans on — audits
// of slot t read every responder's store through a view captured at
// the slot-t boundary while slot t+1 generation keeps appending, and
// still observe precisely the barriered-schedule state (see View).
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
// index is fingerprint-sized — a 64-bit digest key → the sequence
// number of the oldest block whose Δ holds a digest with that key —
// because the log already stores every referenced digest in full
// inside its own headers: a hit is confirmed against the answering
// block's Δ before it is returned. Keys and values hold no pointers.
//
// One lock guards the log and the index. Append holds it across the
// journal write (that is what keeps journal order equal to apply order
// and lets a compaction's gather see every block its rotated WAL
// holds), so on a durable node a responder query, like Get, waits out
// an append's fsync.
type Store struct {
	mu        sync.RWMutex
	owner     identity.NodeID
	blocks    []*block.Block
	bodyBytes int64
	refCount  int64 // Σ len(Header.Digests) over the log, for O(1) ModelBits

	// contains is nil until the first responder query builds it. It
	// maps a referenced digest's key to the oldest block whose Δ holds
	// a digest with that key. Only the oldest is ever asked for (Alg. 4
	// wants exactly that block), and blocks are indexed in ascending
	// sequence order, so an entry is written once and never updated.
	contains map[uint64]uint32
	// containsMore takes the digests whose key was already claimed by
	// an older block that does not reference them, under their full 32
	// bytes → their own oldest block. With 64-bit keys it is expected
	// to stay empty (and unallocated).
	containsMore map[digest.Digest]uint32
	// keyMask is all ones; tests narrow it to force key collisions.
	keyMask uint64

	// journal, when set, durably records every append before it is
	// published (write-ahead). nil = in-memory only.
	journal Journal
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
// recovery layer's concern (snapshot), not the journal's.
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
// unsealed block (e.g. decoded from a snapshot) is defensively copied
// and header-sealed, so the caller's value stays mutable; run
// block.Params.SealBlock first to carry a body-root memo too.
func (s *Store) Append(b *block.Block) error {
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
		if err := s.journal.LogBlock(cp); err != nil {
			return fmt.Errorf("ledger: journaling block %v#%d: %w", s.owner, cp.Header.Seq, err)
		}
	}
	s.blocks = append(s.blocks, cp)
	s.bodyBytes += int64(len(cp.Body))
	s.refCount += int64(len(cp.Header.Digests))
	if s.contains != nil {
		s.indexContains(cp)
	}
	return nil
}

// indexContains folds one block, already in the log, into the
// responder index. Caller holds s.mu for writing.
func (s *Store) indexContains(b *block.Block) {
	for k := range b.Header.Digests {
		d := &b.Header.Digests[k].Digest
		if d.IsZero() {
			continue
		}
		rk := digestKey(d) & s.keyMask
		seq, taken := s.contains[rk]
		if !taken {
			s.contains[rk] = b.Header.Seq
			continue
		}
		// The key's block references d itself (the common case: a
		// neighbour's digest stays in Δ until it seals again) or d has
		// an overflow record already: an older block is on file.
		if s.blocks[seq].Header.Contains(*d) {
			continue
		}
		if _, indexed := s.containsMore[*d]; indexed {
			continue
		}
		if s.containsMore == nil {
			s.containsMore = make(map[digest.Digest]uint32)
		}
		s.containsMore[*d] = b.Header.Seq
	}
}

// rlockIndexed takes the read lock with the responder index in place,
// building it from the log on the first query; steady-state queries
// never take the write lock.
func (s *Store) rlockIndexed() {
	s.mu.RLock()
	for s.contains == nil {
		s.mu.RUnlock()
		s.mu.Lock()
		if s.contains == nil {
			s.contains = make(map[uint64]uint32)
			for _, b := range s.blocks {
				s.indexContains(b)
			}
		}
		s.mu.Unlock()
		s.mu.RLock()
	}
}

// Len returns |S_i|.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Get returns the (sealed, read-only) block with the given sequence
// number.
func (s *Store) Get(seq uint32) (*block.Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(seq) >= len(s.blocks) {
		return nil, fmt.Errorf("%w: %v#%d", ErrNotFound, s.owner, seq)
	}
	return s.blocks[seq], nil
}

// Latest returns the (sealed, read-only) most recent block, or nil for
// an empty store.
func (s *Store) Latest() *block.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.blocks) == 0 {
		return nil
	}
	return s.blocks[len(s.blocks)-1]
}

// oldestContainingAt answers the responder's selection rule restricted
// to the first limit blocks (limit = MaxUint32 for the whole log): two
// map probes at most and one scan of a Δ. The block on file under d's
// key is the oldest referencing any digest with that key, so if it
// references d it is d's oldest, and if it sits beyond the fence so
// does every block referencing d. Otherwise d, if referenced at all,
// has its own overflow record.
func (s *Store) oldestContainingAt(d digest.Digest, limit uint32) (*block.Block, bool) {
	s.rlockIndexed()
	defer s.mu.RUnlock()
	seq, ok := s.contains[digestKey(&d)&s.keyMask]
	if !ok || seq >= limit {
		return nil, false
	}
	// Contains is false for the zero digest, which is never indexed but
	// shares key 0 with whatever digest happens to start with zeros.
	if b := s.blocks[seq]; b.Header.Contains(d) {
		return b, true
	}
	seq, ok = s.containsMore[d]
	if !ok || seq >= limit {
		return nil, false
	}
	return s.blocks[seq], true
}

// OldestContaining implements the responder's selection rule (Alg. 4,
// Eq. 10–11): among the owner's blocks whose Δ contains d, return the
// oldest (sealed, read-only). The second result is false when no block
// matches.
func (s *Store) OldestContaining(d digest.Digest) (*block.Block, bool) {
	return s.oldestContainingAt(d, ^uint32(0))
}

// CountContaining returns |C_j'(b)|: how many Δ entries of the owner's
// blocks reference digest d. Test support for the micro-loop analysis
// (Prop. 5); no protocol path asks, so it scans the log instead of
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

// Headers returns the stored (sealed, read-only) headers in sequence
// order.
func (s *Store) Headers() []*block.Header {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*block.Header, len(s.blocks))
	for i, b := range s.blocks {
		out[i] = &b.Header
	}
	return out
}
