package twoldag

import (
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
)

// Typed observer API. Both Runtime drivers emit the same structured
// event stream at the same protocol moments, so instrumentation is
// written once and works against a live cluster and the deterministic
// simulator alike. Attach observers with WithObserver; embed
// NopObserver to handle only the event kinds you care about.
//
// Observers are invoked from transport and worker-pool goroutines:
// implementations must be safe for concurrent use and cheap (count,
// sample or enqueue — never block or do I/O inline).
type (
	// Digest is a 2LDAG content hash (header identity, Δ entries).
	Digest = digest.Digest

	// Observer receives the runtime's typed event stream.
	Observer = events.Observer
	// NopObserver ignores every event; embed it to implement Observer
	// partially.
	NopObserver = events.Nop

	// BlockSealed reports a node sealing its next data block.
	BlockSealed = events.BlockSealed
	// DigestAnnounced reported one digest ingested into a neighbor's A_i.
	//
	// Deprecated: every delivery is a DigestBatchDelivered.
	DigestAnnounced = events.DigestAnnounced
	// DigestBatchDelivered reports a neighbor ingesting an
	// announcement flush — one digest or many — into its A_i cache in
	// one pass (receiver side, a delivery acknowledgement; one event
	// per receiver per flush; the slices are only valid during the
	// call).
	DigestBatchDelivered = events.DigestBatchDelivered
	// AuditHop reports one REQ_CHILD probe of a PoP verification.
	AuditHop = events.AuditHop
	// ConsensusReached reports an audit that collected γ+1 vouchers.
	ConsensusReached = events.ConsensusReached
	// AuditFailed reports an audit that ended without consensus.
	AuditFailed = events.AuditFailed

	// MessageDropped reports one lost frame: inbox backpressure, an
	// unreachable peer, or a fault injected by WithFaults.
	MessageDropped = events.MessageDropped
	// DropReason classifies a MessageDropped event.
	DropReason = events.DropReason
	// RetryAttempted reports a re-issued announcement frame or PoP
	// request (WithRetryPolicy; Attempt counts from 2).
	RetryAttempted = events.RetryAttempted
	// PeerSuspected reports a node's circuit breaker opening on a peer
	// after consecutive transport failures; audits route around it.
	PeerSuspected = events.PeerSuspected
	// PeerRecovered reports a suspected peer being re-admitted after a
	// successful probe.
	PeerRecovered = events.PeerRecovered

	// FaultPlan is a seeded fault-injection schedule for WithFaults:
	// drop/duplicate rates, a delay bound, per-slot partitions and peer
	// crash windows, all replayed deterministically from the seed.
	FaultPlan = faults.Plan
	// FaultPartition cuts every link between its two sides for a range
	// of logical slots, healing when the range ends.
	FaultPartition = faults.Partition
	// CrashWindow takes one node off the air for a range of logical
	// slots; its state survives the outage.
	CrashWindow = faults.CrashWindow
	// RetryPolicy bounds re-transmission for WithRetryPolicy:
	// exponential backoff with deterministic jitter and a total-attempt
	// cap. The zero value disables retries.
	RetryPolicy = faults.RetryPolicy
)

// Drop reasons carried by MessageDropped events.
const (
	DropBackpressure = events.DropBackpressure
	DropUnreachable  = events.DropUnreachable
	DropInjected     = events.DropInjected
	DropPartition    = events.DropPartition
	DropCrash        = events.DropCrash
)

// DefaultRetryPolicy is a sane retry configuration for lossy
// deployments: four attempts backing off 20ms → 40ms → 80ms with
// half-width jitter.
func DefaultRetryPolicy() RetryPolicy { return faults.DefaultRetryPolicy() }
