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
// reference: Get, Latest, ByHash, OldestContaining, Headers,
// TrustStore.Get and ChildOf return pointers into the store, not
// copies. Callers must treat the results as read-only; anyone who
// needs to mutate one (e.g. the attack library forging a reply) must
// take a block.Clone/Header.Clone first. This removes the O(C) body
// copy that used to sit on every REQ_CHILD/GetBlock hop.
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
// whoever builds it: Store keeps a digest → {oldest, count} map built
// on the first responder query; TrustStore keeps an insertion-ordered
// ring with 64-bit-keyed maps and per-reference links (see the types).
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

// containsEntry is the responder index record for one referenced
// digest: only the oldest matching sequence (Alg. 4 wants exactly that
// block) and the match count (|C_j'(b)|, Prop. 5) are ever queried, so
// that is all the index keeps.
type containsEntry struct {
	oldest uint32
	count  uint32
}

// Store is S_i: the append-only log of one node's own blocks, with an
// index answering the responder query of Algorithm 4 — "the oldest of my
// blocks whose Δ contains digest d".
//
// Every store keeps the same state: the ordered log and one
// digest → {oldest, count} responder index, built from the log on the
// first responder query and kept current by Append from then on, so a
// node nobody audits (and a zero-audit scaling run of 10k–100k stores)
// never pays for it. Keys and values of the index hold no pointers.
// Stores differ only in who answers ByHash: a live node's store
// (NewStore) keeps its own hash → sequence map, while the simulator's
// stores (NewStoreInArena) publish their sealed blocks to one shared
// content-addressed Arena and ask it.
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

	// contains is nil until the first responder query builds it.
	contains map[digest.Digest]containsEntry

	// Exactly one of the two is set.
	arena  *Arena
	byHash map[digest.Digest]uint32 // header hash → sequence number

	// journal, when set, durably records every append before it is
	// published (write-ahead). nil = in-memory only.
	journal Journal
}

// NewStore creates an empty log owned by the given node.
func NewStore(owner identity.NodeID) *Store {
	return &Store{owner: owner, byHash: make(map[digest.Digest]uint32)}
}

// NewStoreInArena creates an empty log owned by the given node whose
// appended blocks are also published to the shared content-addressed
// arena, which then answers hash lookups. Many stores may share one
// arena; this is the representation that lets the simulator hold tens
// of thousands of ledgers in one process.
func NewStoreInArena(owner identity.NodeID, a *Arena) *Store {
	return &Store{owner: owner, arena: a}
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
	hh := cp.Header.Seal()
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
	if s.arena != nil {
		s.arena.Put(cp)
	} else {
		s.byHash[hh] = cp.Header.Seq
	}
	if s.contains != nil {
		s.indexContains(cp)
	}
	return nil
}

// indexContains folds one block into the responder index. Caller holds
// s.mu for writing.
func (s *Store) indexContains(b *block.Block) {
	for _, ref := range b.Header.Digests {
		if ref.Digest.IsZero() {
			continue
		}
		e, ok := s.contains[ref.Digest]
		if !ok {
			e.oldest = b.Header.Seq
		}
		e.count++
		s.contains[ref.Digest] = e
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
			s.contains = make(map[digest.Digest]containsEntry)
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

// ByHash returns the (sealed, read-only) block whose header hashes to d.
func (s *Store) ByHash(d digest.Digest) (*block.Block, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.arena == nil {
		seq, ok := s.byHash[d]
		if !ok {
			return nil, false
		}
		return s.blocks[seq], true
	}
	// The arena is shared across many owners: membership in *this*
	// store means the arena's block occupies its sequence slot in the
	// log.
	b, ok := s.arena.Get(d)
	if !ok || b.Header.Origin != s.owner ||
		int(b.Header.Seq) >= len(s.blocks) || s.blocks[b.Header.Seq] != b {
		return nil, false
	}
	return b, true
}

// oldestContainingAt answers the responder's selection rule restricted
// to the first limit blocks (limit = MaxUint32 for the whole log).
// Blocks are indexed in ascending sequence order, so the oldest
// in-fence match is the index record's oldest whenever that predates
// the fence.
func (s *Store) oldestContainingAt(d digest.Digest, limit uint32) (*block.Block, bool) {
	s.rlockIndexed()
	defer s.mu.RUnlock()
	e, ok := s.contains[d]
	if !ok || e.oldest >= limit {
		return nil, false
	}
	return s.blocks[e.oldest], true
}

// OldestContaining implements the responder's selection rule (Alg. 4,
// Eq. 10–11): among the owner's blocks whose Δ contains d, return the
// oldest (sealed, read-only). The second result is false when no block
// matches.
func (s *Store) OldestContaining(d digest.Digest) (*block.Block, bool) {
	return s.oldestContainingAt(d, ^uint32(0))
}

// CountContaining returns |C_j'(b)|: how many of the owner's blocks
// reference digest d. Exposed for the micro-loop analysis tests
// (Prop. 5).
func (s *Store) CountContaining(d digest.Digest) int {
	s.rlockIndexed()
	defer s.mu.RUnlock()
	return int(s.contains[d].count)
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
