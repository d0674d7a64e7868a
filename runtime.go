package twoldag

import (
	"context"
	"errors"
	"fmt"

	"github.com/twoldag/twoldag/internal/cluster"
	"github.com/twoldag/twoldag/internal/par"
	"github.com/twoldag/twoldag/internal/topology"
)

// Runtime is a running 2LDAG deployment, live or simulated. Both
// drivers speak the same verbs:
//
//   - Submit seals one node's next data block and announces its header
//     digest to the node's radio neighbors; SubmitBatch seals a whole
//     slot's blocks first and flushes every announcement at once.
//   - Audit runs Proof-of-Path from a validator against a block ref;
//     AuditMany fans a batch of audits out over a bounded worker pool.
//   - Join and Silence change membership while the network runs
//     (Sec. VII): joiners are placed in radio range of a live device,
//     silenced nodes stop answering and audits route around them.
//
// Methods are safe for the documented concurrency only: audits may run
// concurrently with each other, but membership changes and submissions
// must not race audits or each other.
type Runtime interface {
	// Nodes returns the device IDs in ascending order, including
	// silenced devices (they remain part of the radio topology).
	Nodes() []NodeID
	// Topology returns the shared physical radio graph.
	Topology() *Topology
	// Slot returns the current logical time.
	Slot() uint32
	// AdvanceSlot increments logical time; blocks submitted afterwards
	// carry the new slot in their Time field.
	AdvanceSlot()
	// Submit seals data into id's next block and announces it. The
	// call returns once every live neighbor acknowledged the digest
	// (event-driven; the context deadline bounds the wait, falling
	// back to the configured request timeout when the context has
	// none).
	Submit(ctx context.Context, id NodeID, data []byte) (Ref, error)
	// SubmitBatch seals one block per submission, then flushes all
	// announcements in one receiver-centric round — each sender's
	// digests coalesce into one frame per neighbor, and each receiver
	// ingests its whole batch in one pass — and waits for the
	// acknowledgements together: one announcement flush per slot
	// instead of per block, one frame per (sender, neighbor) pair
	// instead of per edge.
	//
	// Failures: when a seal fails, the error returned is that of the
	// lowest-index failing submission and the refs are exactly those
	// of the submissions before it — all sealed, none announced. The
	// live driver seals in rounds, the r-th block of every device side
	// by side (WithWorkers): once a failure is on record no worker
	// starts a block that comes after it in the batch, and an unknown
	// Submission.Node fails the call before anything is sealed (the
	// simulator meets it in batch order, after sealing the entries
	// ahead of it). On a durable deployment a round's commit window —
	// one fsync for all its blocks — closes before any of them is
	// appended, reported sealed, returned or announced; a window that
	// does not close is a seal failure of every block in it, so none
	// of them exists afterwards, in memory or on disk, and the next
	// batch seals their sequence numbers again. A failure after the
	// seal stage — an acknowledgement wait that times out, lowest
	// index first — returns the refs of the whole batch beside the
	// error, and every acknowledgement wait it registered is
	// cancelled.
	//
	// On the live driver OnBlockSealed callbacks arrive round by round
	// after the round's window has closed, a device's own in its
	// sequence order.
	SubmitBatch(ctx context.Context, batch []Submission) ([]Ref, error)
	// Audit runs PoP from validator against ref and reports whether
	// γ+1 distinct nodes vouch for the block.
	Audit(ctx context.Context, validator NodeID, ref Ref) (*AuditResult, error)
	// AuditMany runs the requested audits concurrently over a bounded
	// worker pool (WithWorkers) and returns one outcome per request,
	// in request order.
	AuditMany(ctx context.Context, reqs []AuditRequest) []AuditOutcome
	// Block fetches a block from its origin's local store (display,
	// sample proofs). The result is shared sealed state — read-only.
	Block(ref Ref) (*Block, error)
	// Join adds a new device in radio range of a live device and
	// returns its ID.
	Join() (NodeID, error)
	// Silence takes a device offline; subsequent audits route around
	// it.
	Silence(id NodeID) error
	// Close stops the deployment and releases its resources.
	Close() error
}

// Submission is one SubmitBatch entry.
type Submission struct {
	Node NodeID
	Data []byte
}

// AuditRequest names one AuditMany verification.
type AuditRequest struct {
	Validator NodeID
	Ref       Ref
}

// AuditOutcome is one AuditMany result. Err carries the terminal
// error (e.g. ErrNoConsensus) when the audit did not succeed; Result
// is non-nil whenever the verification ran, successful or not, so
// cost counters remain available either way.
type AuditOutcome struct {
	Request AuditRequest
	Result  *AuditResult
	Err     error
}

// New builds a Runtime from functional options:
//
//	rt, err := twoldag.New(
//	    twoldag.WithNodes(50),
//	    twoldag.WithGamma(4),
//	    twoldag.WithTransport(twoldag.TCP),
//	    twoldag.WithWorkers(8),
//	)
//
// The default driver is the live cluster over the in-memory fabric;
// WithSimulator selects the deterministic slot simulator. Identical
// options (and seed) build deployments with identical topologies and
// identities on either driver, and audits reach identical consensus
// outcomes — the drivers differ in transport realism and cost
// accounting, not protocol behavior.
func New(opts ...Option) (Runtime, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("twoldag: nil Option")
		}
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	g, err := cfg.resolveTopology()
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(g); err != nil {
		return nil, err
	}
	switch cfg.driver {
	case DriverSim:
		return newSimDriver(cfg, g)
	default:
		return newCluster(cfg, g)
	}
}

// fanOut runs fn(0..n-1) on at most workers goroutines (0 =
// GOMAXPROCS); with one worker it degrades to a plain loop.
func fanOut(n, workers int, fn func(i int)) {
	par.ForEach(n, workers, fn)
}

// placeJoiner allocates an unused device ID and wires it into the
// radio graph within communication range of the newest live device
// (the paper's Sec. VII dynamic-membership extension). The rule lives
// in internal/cluster so the in-process drivers and cross-host Hosts
// place joiners identically.
func placeJoiner(topo *topology.Graph, ids []NodeID, isLive func(NodeID) bool) (NodeID, error) {
	id, err := cluster.PlaceJoiner(topo, ids, isLive)
	if err != nil {
		return 0, fmt.Errorf("twoldag: %w", err)
	}
	return id, nil
}
