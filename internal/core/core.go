// Package core implements the Proof-of-Path (PoP) protocol — the primary
// contribution of the 2LDAG paper (Sec. IV).
//
// PoP is a *reactive* consensus protocol: nothing happens until a
// validator needs to verify the block of some verifier node. The
// validator then walks the logical DAG child-by-child across distinct
// physical nodes, collecting vouchers into the set R_i, until
// |R_i| ≥ γ+1 distinct nodes (directly or transitively) attest to the
// target block's integrity.
//
// The package contains faithful implementations of the paper's four
// algorithms:
//
//   - Weighted Path Selection, WPS (Algorithm 1) — picks the next
//     responder by the closed-neighborhood weight of Eq. 7;
//   - Trust Path Selection, TPS (Algorithm 2) — extends the path for
//     free using the validator's cache H_i of previously verified
//     headers;
//   - Validator (Algorithm 3) — the full path construction loop with
//     timeout handling and rollback around unresponsive or malicious
//     nodes;
//   - Responder (Algorithm 4) — answers REQ_CHILD with the oldest local
//     block whose Δ field contains the requested digest (Eq. 10–11).
//
// A validator reaches responders through a Fetcher: StoreFetcher asks
// their stores in process (the simulator's transport, which accounts
// costs and injects attacks through its hooks), and package node's RPC
// fetcher sends REQ_CHILD and GET_BLOCK over a transport.
package core

import (
	"context"
	"errors"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Sentinel errors surfaced by PoP.
var (
	// ErrNoConsensus is returned when path construction exhausts every
	// alternative without collecting γ+1 vouchers (Algorithm 3 line 33).
	ErrNoConsensus = errors.New("core: consensus unreachable")
	// ErrRootMismatch is returned when the verifier's block body does
	// not hash to its header root (Algorithm 3 line 4).
	ErrRootMismatch = errors.New("core: verifier block failed root check")
	// ErrInvalidBlock is returned when the verifier's block fails
	// header validation (PoW or signature) or is not the block the
	// validator asked for.
	ErrInvalidBlock = errors.New("core: verifier block invalid")
	// ErrNoChild is a NOT_FOUND answer to REQ_CHILD as a validator
	// across a transport sees it: the responder holds no child of the
	// requested digest. In process, that miss is the store's
	// ledger.ErrNotFound.
	ErrNoChild = errors.New("core: no child block for digest")
	// ErrTimeout stands for an expired REQ_CHILD timeout τ.
	ErrTimeout = errors.New("core: request timed out")
	// ErrStepBudget is returned when path construction exceeds the
	// safety budget DefaultStepBudget.
	ErrStepBudget = errors.New("core: step budget exhausted")
)

// Fetcher is the validator's view of the network. StoreFetcher answers
// in process, from the responders' stores (the simulator's
// deterministic, cost-accounted transport); node's RPC fetcher answers
// over real transports, with timeouts. Malicious behaviors are injected
// behind this interface.
//
// Ownership contract: returned headers and blocks must not be mutated
// by the fetcher after they are returned, and the validator treats them
// as read-only. In-process fetchers may therefore hand out sealed
// store references without copying; an implementation that needs to
// rewrite a reply (e.g. the attack library) must clone first.
type Fetcher interface {
	// RequestChild sends REQ_CHILD(target) to node j and returns the
	// header from the matching RPY_CHILD. Errors represent timeouts,
	// refusals or unparseable replies.
	RequestChild(ctx context.Context, j identity.NodeID, target digest.Digest) (*block.Header, error)
	// FetchBlock retrieves the full block identified by ref from its
	// origin node.
	FetchBlock(ctx context.Context, ref block.Ref) (*block.Block, error)
}

// PathStep is one entry of the constructed path P_i.
type PathStep struct {
	// Node is the physical node owning the block (the j' that answered,
	// or the verifier itself for the first step).
	Node identity.NodeID
	// Header is the block's header, possibly shared with a store or,
	// through the verification cache's intern table, with other
	// devices of the process — treat it as read-only (see Fetcher's
	// ownership contract and block.VerifyCache.Intern).
	Header *block.Header
	// HeaderHash caches Header.Hash().
	HeaderHash digest.Digest
	// ViaTrust marks steps satisfied from H_i (TPS) without traffic.
	ViaTrust bool
}

// Result reports the outcome and cost of one PoP verification.
type Result struct {
	// Target identifies the verified block.
	Target block.Ref
	// Consensus is true when |R_i| ≥ γ+1 was reached.
	Consensus bool
	// Path is P_i in construction order, starting at the target block.
	Path []PathStep
	// Vouchers is R_i in join order (distinct physical nodes).
	Vouchers []identity.NodeID

	// MessagesSent counts REQ_CHILD and GET_BLOCK messages emitted.
	MessagesSent int
	// MessagesReceived counts replies received (valid or not).
	MessagesReceived int
	// HeadersFetched counts headers obtained over the network.
	HeadersFetched int
	// TrustHits counts path steps satisfied from H_i (TPS).
	TrustHits int
	// Rollbacks counts Algorithm 3 line 26-31 events.
	Rollbacks int
	// Timeouts counts requests that produced no valid reply.
	Timeouts int
	// UnionFallback reports that the final path alone holds fewer than
	// γ+1 distinct nodes: consensus, if reached, counted vouchers whose
	// blocks lie on branches the search rolled back (see
	// Validator.Verify). Algorithm 3's strict verdict is Consensus &&
	// !UnionFallback.
	UnionFallback bool
}
