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
// the journal — each sealed block into an append-only segment, the
// rest of the node into a checkpoint — and recover the whole node
// state after a crash.
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
// — authenticate each block before it re-enters a Store (see
// RecoverOptions.Ring).

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
// write or fsync before it returns) and must not call back into the
// ledger structures.
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
	// records a checkpoint already accounts for, FIFO evictions included.
	LogTrust(h *block.Header, inserted int64) error
	// LogDigest records a digest-cache upsert: from's latest digest.
	LogDigest(from identity.NodeID, d digest.Digest) error
	// LogForget records a digest-cache entry removal (dynamic leave),
	// so a recovered cache does not resurrect departed neighbors.
	LogForget(from identity.NodeID) error
}

// NodeState is the whole recoverable state of one node's ledger: the
// own-block log S_i, the PoP trust store H_i (with its FIFO cap), and
// the neighbor digest cache A_i. FileBackend keeps S_i in a segment and
// the rest in a checkpoint (see checkpoint.go), Backend.Recover returns
// it, and Digest names it.
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
	// Owner is the recovering node; a checkpoint or segment of a
	// different node, or a log of one that a backend owns alone
	// (OpenFileBackend), fails recovery with ErrWrongOwner.
	Owner identity.NodeID
	// Params re-seals replayed blocks and headers
	// (block.Params.SealBlock), so everything Recover returns honors
	// the sealed contract.
	Params block.Params
	// Ring, when non-nil, authenticates what recovery restores; use it
	// when the data dir is untrusted media. Every replayed block is
	// still re-sealed and checked for version, PoW and M(body) == Root,
	// but the segment's blocks, and each WAL generation's new ones, are
	// one hash chain (Δ[0] links each to its predecessor), so one
	// signature — the newest block's — authenticates each such run
	// (block.Params.VerifyChain). A run the proof does not cover is
	// validated block by block, which decides verdict and error. The two
	// differ only on a chain whose block k is badly signed while its
	// validly signed successor references it: only the key holder can
	// make that, and could as well have signed k. Each restored H_i
	// header — another device's, linked to nothing here — costs a
	// signature of its own (ValidateHeader): |H_i| per restart, bounded
	// by the trust cap when one is set.
	Ring *identity.Ring
	// TrustCap, when > 0, overrides the checkpoint's recorded cap (a
	// redeployment with a new -trust-cap wins); 0 adopts the recorded
	// cap so the bound survives restarts unconfigured.
	TrustCap int
}

// Backend is the pluggable durability layer under a node's ledger: a
// Journal plus compaction/recovery lifecycle. The in-memory default is
// simply the absence of one (nil journal everywhere); FileBackend is
// the file-backed implementation (append-only WAL, compacted into an
// append-only block segment and a checkpoint).
type Backend interface {
	Journal

	// Recover rebuilds the node state recorded so far: checkpoint and
	// segment first, then WAL replay (a torn tail cut off as the log
	// opened). It writes nothing; compacting what it replayed is the
	// opener's, once every owner of the log has recovered. On a fresh
	// backend it returns an empty state. Call once, before attaching the
	// backend as journal and before the node sees traffic.
	Recover(opts RecoverOptions) (*NodeState, error)

	// Compact commits the owner's state to its segment and a fresh
	// checkpoint: the blocks the segment lacks are appended to it, the
	// rest of the state replaces the checkpoint; a backend that owns its
	// log rotates the WAL first and drops the rotated generation after.
	// gather must return a consistent view of the current state,
	// continuing the blocks the segment holds; mutations logged meanwhile
	// land in the WAL and replay idempotently on recovery. A failure is
	// returned and also kept as the sticky error Sync and Close report.
	Compact(gather func() (*NodeState, error)) error

	// PendingBlocks reports how many block records the current WAL
	// generation holds — the compaction trigger.
	PendingBlocks() int

	// StageBlock logs b's record into the open commit window and
	// returns without writing it (unless the log's buffer is full) or
	// waiting for an fsync: the Commit that closes the window writes and
	// fsyncs it. A LogBlock of the same block afterwards logs nothing: it
	// only acknowledges the window's fsync, closing the window itself if
	// no Commit has. A driver that stages a whole round of blocks, commits once
	// and then appends them to their stores pays one write and one fsync
	// for the round, and no block of it is visible before it is durable.
	StageBlock(b *block.Block) error

	// Commit closes the current commit window: it writes every buffered
	// record and fsyncs every record logged since the last fsync — the
	// acknowledgement point drivers invoke at their flush boundary. A
	// failed write or fsync, here or earlier in the window, fails every
	// block record of the window, and Commit reports it. A no-op when
	// nothing was logged.
	Commit() error

	// Flush writes every buffered record without an fsync, so a process
	// kill no longer loses it: what a node calls before it acknowledges
	// a digest on the wire.
	Flush() error

	// Sync writes and fsyncs everything logged so far, and surfaces any
	// deferred journal error (trust, digest and forget records are
	// buffered; one lost to storage is reported here and on Close).
	Sync() error

	// Close syncs and releases the backend. Journal calls after Close
	// return ErrBackendClosed.
	Close() error
}
