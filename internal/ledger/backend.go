package ledger

import (
	"errors"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Durable persistence (paper motivation: each device is the *sole*
// holder of its own ledger S_i — a node that reboots and loses state
// loses data nobody else stores). The ledger structures stay in-memory
// and index-rich; durability is layered underneath them through a
// Journal that observes every mutation, and a Backend that can compact
// the journal into a snapshot and recover the whole node state after a
// crash.
//
// # Sealed-immutability contract
//
// Every value handed to a Journal is sealed and immutable by the
// codebase-wide contract (see the block package doc): Store.Append
// seals before logging, TrustStore.Add stores sealed headers, and
// digests are values. A Backend must treat them as read-only — it may
// retain references across calls (they never mutate), and it must
// never hand a logged block or header to anything that writes to it.
// Conversely, everything a Backend returns from Recover must be fully
// sealed again: replay decodes wire bytes, so RecoverOptions.Params is
// used to re-seal (block.Params.SealBlock) and — when a Ring is given
// — re-verify each block before it re-enters a Store.

// Backend errors.
var (
	// ErrBackendClosed is returned by journal and lifecycle calls on a
	// backend that has already been closed.
	ErrBackendClosed = errors.New("ledger: backend closed")
)

// Journal receives every durable mutation of a node's ledger state, in
// the mutating goroutine, inside the owning structure's write lock —
// so the journal order is exactly the apply order, and replaying the
// journal reproduces the state byte for byte. Implementations must
// therefore be fast (buffered writes; only LogBlock is expected to
// fsync) and must not call back into the ledger structures.
//
// A nil Journal (the default on every structure) is the in-memory
// no-op backend: no call sites pay more than a nil check.
type Journal interface {
	// LogBlock records a sealed block appended to the owner's S_i. An
	// error fails the append: durability is write-ahead, a block that
	// cannot be logged is not accepted.
	LogBlock(b *block.Block) error
	// LogTrust records a sealed header added to H_i. inserted is the
	// header's zero-based index in H_i's lifetime insertion sequence
	// (TrustStore.Insertions at Add time); recovery uses it to skip
	// records a snapshot already accounts for, FIFO evictions included.
	LogTrust(h *block.Header, inserted int64) error
	// LogDigest records a digest-cache upsert: from's latest digest.
	LogDigest(from identity.NodeID, d digest.Digest) error
	// LogForget records a digest-cache entry removal (dynamic leave),
	// so a recovered cache does not resurrect departed neighbors.
	LogForget(from identity.NodeID) error
}

// NodeState is the whole recoverable state of one node's ledger: the
// own-block log S_i, the PoP trust store H_i (with its FIFO cap), and
// the neighbor digest cache A_i. It is what snapshot v2 serializes and
// what Backend.Recover returns.
type NodeState struct {
	Store *Store
	Trust *TrustStore
	Cache *DigestCache
	// TrustCap is the H_i FIFO bound in force (0 = unbounded). It is
	// persisted so a capped node keeps its bound across restarts.
	TrustCap int
}

// NewNodeState returns an empty state for the given owner with the
// given trust cap.
func NewNodeState(owner identity.NodeID, trustCap int) *NodeState {
	st := &NodeState{
		Store:    NewStore(owner),
		Trust:    NewTrustStore(),
		Cache:    NewDigestCache(),
		TrustCap: trustCap,
	}
	if trustCap > 0 {
		st.Trust.SetCap(trustCap)
	}
	return st
}

// Attach installs j as the journal on every structure of the state.
// Call after recovery, never before (replay must not re-journal).
func (st *NodeState) Attach(j Journal) {
	st.Store.SetJournal(j)
	st.Trust.SetJournal(j)
	st.Cache.SetJournal(j)
}

// RecoverOptions parameterizes Backend.Recover.
type RecoverOptions struct {
	// Owner is the recovering node; a snapshot or WAL belonging to a
	// different node fails recovery with ErrWrongOwner.
	Owner identity.NodeID
	// Params re-seals replayed blocks and headers
	// (block.Params.SealBlock), so everything Recover returns honors
	// the sealed contract.
	Params block.Params
	// Ring, when non-nil, cryptographically re-verifies every replayed
	// block (block.Params.Validate): PoW, signature, structure. Use it
	// when the data dir is untrusted media.
	Ring *identity.Ring
	// TrustCap, when > 0, overrides the snapshot's recorded cap (a
	// redeployment with a new -trust-cap wins); 0 adopts the recorded
	// cap so the bound survives restarts unconfigured.
	TrustCap int
	// Workers bounds the verification parallelism of replay: the
	// re-seal (and, with a Ring, signature/PoW) checks of snapshot and
	// WAL blocks fan out on a pool this wide while decoding and all
	// structural checks stay sequential. 0 uses GOMAXPROCS; 1 runs
	// fully serial. The recovered state, RecoveryReport, and every
	// error are identical at any width.
	Workers int

	// shared is set by Recover on a view of a shared log: other owners'
	// block records are passed over instead of failing as ErrWrongOwner.
	shared bool
}

// Backend is the pluggable durability layer under a node's ledger: a
// Journal plus snapshot/recovery lifecycle. The in-memory default is
// simply the absence of one (nil journal everywhere); FileBackend is
// the file-backed implementation (append-only WAL + snapshot-v2
// compaction).
type Backend interface {
	Journal

	// Recover rebuilds the node state recorded so far: snapshot first,
	// then WAL replay (torn tails tolerated). On a fresh backend it
	// returns an empty state. Call once, before attaching the backend
	// as journal and before the node sees traffic.
	Recover(opts RecoverOptions) (*NodeState, error)

	// Compact folds the journal into a fresh snapshot. gather is
	// called after the WAL has been rotated and must return a
	// consistent view of the current state; mutations logged while the
	// snapshot is written land in the new WAL generation and replay
	// idempotently over the snapshot on recovery. A failure is returned
	// and also kept as the sticky error Sync and Close report.
	Compact(gather func() (*NodeState, error)) error

	// PendingBlocks reports how many block records the current WAL
	// generation holds — the compaction trigger.
	PendingBlocks() int

	// StageBlock writes b's record into the open commit window and
	// returns without waiting for the fsync. A LogBlock of the same
	// block afterwards writes nothing: it only acknowledges (under
	// SyncAlways, waits for) the window's fsync. A driver that stages a
	// whole round of blocks, commits once and then appends them to their
	// stores pays one fsync for the round, and no block of it is visible
	// before it is durable.
	StageBlock(b *block.Block) error

	// Commit closes the current commit window, fsyncing every staged
	// block record: the acknowledgement point drivers invoke at their
	// flush boundary under a batched SyncPolicy. A no-op when nothing
	// is staged.
	Commit() error

	// Sync flushes and fsyncs everything logged so far, and surfaces
	// any deferred journal error (trust/digest records are buffered;
	// their write errors are sticky and reported here and on Close).
	Sync() error

	// Close syncs and releases the backend. Journal calls after Close
	// return ErrBackendClosed.
	Close() error
}
