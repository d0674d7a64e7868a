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
// Journal that observes every mutation, and a FileBackend that can
// compact the journal — each sealed block into an append-only segment,
// the rest of the node into a checkpoint — and recover the whole node
// state after a crash.
//
// # Sealed-immutability contract
//
// Every value handed to a Journal is sealed and immutable by the
// codebase-wide contract (see the block package doc): Store.Append
// seals before logging, TrustStore.Add stores sealed headers, and
// digests are values. A journal must treat them as read-only — it may
// retain references across calls (they never mutate), and it must
// never hand a logged block or header to anything that writes to it.
// Conversely, everything FileBackend.Recover returns must be fully
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
// therefore be fast (buffered writes; only logBlock is expected to
// write or fsync before it returns) and must not call back into the
// ledger structures.
//
// A nil Journal (the default on every structure) is the in-memory
// no-op backend: no call sites pay more than a nil check.
type Journal interface {
	// logBlock records a sealed block appended to s, the owner's S_i,
	// and returns where its record sits in the log once it is durable,
	// for s to read it back from instead of holding it (Store.append);
	// the zero span keeps it held. An error fails the append: durability
	// is write-ahead, a block that cannot be logged is not accepted.
	logBlock(s *Store, b *block.Block) (walSpan, error)
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
// the neighbor digest cache A_i. FileBackend keeps S_i in a segment
// and the rest in a checkpoint (see checkpoint.go), FileBackend.Recover
// returns it, and Digest names it.
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

// RecoverOptions parameterizes FileBackend.Recover.
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
