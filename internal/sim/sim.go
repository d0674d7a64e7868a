// Package sim is the slotted-time simulator behind every figure in the
// paper's evaluation (Sec. VI).
//
// Time is divided into slots. Each node generates at most one block per
// slot (at its configured period), announces the header digest to its
// radio neighbors, and — once the network is older than |V| slots —
// audits one past block per generated block by running the real PoP
// validator (internal/core) over an in-process fetcher that accounts
// every transmission with the paper's analytic size model and injects
// the configured attack behaviors.
//
// Storage accounting per node = S_i (own blocks, Eq. 2) + H_i (verified
// headers, Prop. 2) + optionally the full blocks retained from
// successful audits (see DESIGN.md on the Fig. 7 calibration).
//
// # Pipelined slot execution
//
// The slotted scheduler can run as a bounded-depth pipeline
// (Config.PipelineDepth): once slot t's generation and announcement
// flush have committed — the existing atomic sealed-delivery point —
// slot t's audit duty is handed to a persistent audit stage while the
// main loop proceeds to slot t+1 generation. Correctness rests on the
// immutable-prefix contract:
//
//   - audits in slot t read every responder's store through a
//     ledger.View fenced at the slot-t boundary, so they never observe
//     blocks appended by slot t+1 generation (generation only appends
//     blocks newer than the fence);
//   - a node's slot-t+1 generation waits for that node's slot-t audit
//     duty (audGate), because both draw from the node's single random
//     stream and the barriered draw order must be preserved;
//   - audit slots retire strictly in order on the stage, and each
//     slot's report snapshot combines boundary-frozen store and
//     construction sums with post-audit trust/retention/consensus
//     state.
//
// Together these make the Report a pure function of the Config —
// byte-identical across every pipeline depth and worker count for the
// same Seed.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/metrics"
	"github.com/twoldag/twoldag/internal/par"
	"github.com/twoldag/twoldag/internal/pow"
	"github.com/twoldag/twoldag/internal/topology"
)

// ErrBadConfig reports invalid simulation parameters.
var ErrBadConfig = errors.New("sim: invalid config")

// Config parameterizes one simulation run.
type Config struct {
	// Graph is the physical topology; when nil, Topo generates one.
	Graph *topology.Graph
	// Topo is used when Graph is nil.
	Topo topology.Config
	// Seed drives every random choice (placement uses Topo.Seed).
	Seed int64
	// Slots is the horizon T.
	Slots int
	// BodyBytes is C in bytes (0.1/0.5/1 MB in the paper).
	BodyBytes int
	// Gamma is the tolerated malicious count γ.
	Gamma int
	// Malicious is how many nodes actually behave maliciously.
	Malicious int
	// Behavior is the malicious behavior kind (default silent).
	Behavior attack.Kind
	// RandomPeriodMax ≥ 2 draws each node's generation period uniformly
	// from {1..RandomPeriodMax}; otherwise every node generates each
	// slot.
	RandomPeriodMax int
	// Strategy overrides WPS (ablations).
	Strategy core.SelectionStrategy
	// DisableTrust turns off H_i caching (TPS ablation).
	DisableTrust bool
	// TrustCap bounds each validator's H_i to this many headers with
	// deterministic oldest-first eviction (ledger.TrustStore.SetCap).
	// 0 (the default) keeps H_i unbounded — the paper's behavior and
	// the live driver's. Scale runs set it: with every node auditing
	// every slot, unbounded trust retention is the dominant memory
	// term past a few thousand nodes.
	TrustCap int
	// DisableAudits turns off per-generation audits (used by the
	// consensus-probe experiment, which runs its own verifications).
	DisableAudits bool
	// RetainVerifiedBlocks adds retrieved blocks to storage accounting.
	RetainVerifiedBlocks bool
	// VerifyLag is the minimum age (slots) of auditable blocks;
	// 0 means |V| per Sec. VI.
	VerifyLag int
	// Difficulty is the PoW difficulty ρ; simulations default to 0 so
	// runs stay fast (cost accounting never depends on ρ).
	Difficulty pow.Difficulty
	// SyntheticBodyBytes is the materialized body size (the accounted
	// size is always BodyBytes); 0 means 32.
	SyntheticBodyBytes int
	// StepBudget caps per-audit probing (0 = core default).
	StepBudget int
	// Workers bounds the goroutines running per-slot generation and
	// audits: 0 uses GOMAXPROCS, 1 forces the serial scheduler. Every
	// random choice inside a slot draws from a per-node stream, so a
	// given Seed produces an identical Report for any worker count.
	Workers int
	// ChunkSize sets how many nodes one worker claims at a time inside
	// the per-slot phases. At 10k–100k nodes, one pool task per node
	// spends more time on dispatch (an atomic claim per index) than on
	// the work; range-chunked tasks amortize that to one claim per
	// ChunkSize nodes and let each worker reuse its scratch across the
	// chunk. 0 picks a size from the worker count. Chunking only
	// changes which worker runs which node — every per-node draw still
	// comes from that node's private stream — so the Report is
	// byte-identical for any (Workers, PipelineDepth, ChunkSize).
	ChunkSize int
	// SampleMemStats fills Report.Mem with process heap statistics at
	// Finalize (two forced collections, then runtime.ReadMemStats). Off
	// by default: the sample reflects the whole process, not just this
	// run, and it is the one Report field that is NOT a pure function
	// of the Config — leave it off where reports are compared across
	// runs.
	SampleMemStats bool
	// PipelineDepth bounds how many slots of audit duty may be in
	// flight behind generation: at depth d the slotted scheduler moves
	// on to slot t+1 generation while up to d audit slots are still
	// verifying on a persistent audit stage, under the
	// immutable-prefix contract (see the package doc). 0 or 1 (the
	// default) runs the fully barriered schedule. Any depth produces a
	// byte-identical Report for the same Seed.
	PipelineDepth int
	// Observer, when non-nil, receives the typed event stream
	// (internal/events): block seals, digest deliveries, audit hops and
	// outcomes. Generation and audit phases run on a worker pool, so
	// the observer must be safe for concurrent use; with
	// PipelineDepth > 1, slot t's audit events may additionally
	// interleave with slot t+1's generation events. The Report stays a
	// pure function of the Config regardless of observer behavior.
	Observer events.Observer
}

func (c Config) validate() error {
	if c.Slots < 0 {
		return fmt.Errorf("%w: %d slots", ErrBadConfig, c.Slots)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("%w: pipeline depth %d", ErrBadConfig, c.PipelineDepth)
	}
	if c.BodyBytes <= 0 {
		return fmt.Errorf("%w: body %d bytes", ErrBadConfig, c.BodyBytes)
	}
	if c.Gamma < 0 {
		return fmt.Errorf("%w: gamma %d", ErrBadConfig, c.Gamma)
	}
	if c.Malicious < 0 {
		return fmt.Errorf("%w: malicious %d", ErrBadConfig, c.Malicious)
	}
	if c.ChunkSize < 0 {
		return fmt.Errorf("%w: chunk size %d", ErrBadConfig, c.ChunkSize)
	}
	if c.TrustCap < 0 {
		return fmt.Errorf("%w: trust cap %d", ErrBadConfig, c.TrustCap)
	}
	return nil
}

// loggedBlock records one generated block for audit-target selection.
type loggedBlock struct {
	ref  block.Ref
	slot int
}

// nodeSeed derives node id's private RNG stream from the run seed with
// golden-ratio mixing so nearby seeds decorrelate.
func nodeSeed(seed int64, id identity.NodeID) int64 {
	return seed ^ int64(uint64(id+1)*0x9E3779B97F4A7C15)
}

// commCell is one node's transmission counter. Fields are atomic so
// parallel audits can charge arbitrary responders concurrently; atomic
// addition is commutative, which keeps totals independent of audit
// scheduling order.
type commCell struct {
	construction atomic.Int64
	consensus    atomic.Int64
}

func (c *commCell) add(p metrics.Purpose, bits int64) {
	if p == metrics.Construction {
		c.construction.Add(bits)
	} else {
		c.consensus.Add(bits)
	}
}

func (c *commCell) totalBits() int64 {
	return c.construction.Load() + c.consensus.Load()
}

// Sim is a running simulation. Build with New; Step/Run must not be
// called concurrently (each Step fans its per-node work out over a
// persistent worker pool, and with PipelineDepth > 1 hands audit duty
// to a persistent audit stage). Call Close when done to release the
// scheduler's goroutines.
type Sim struct {
	cfg     Config
	graph   *topology.Graph
	model   block.SizeModel
	params  block.Params
	ring    *identity.Ring
	rng     *rand.Rand
	workers int

	// pool runs the main loop's parallel phases (generation,
	// announcement, and — when the pipeline is off — audits). audPool
	// is the audit stage's own worker set: audit tasks must never share
	// workers with generation tasks, which block on audGate.
	pool    *par.Pool
	audPool *par.Pool

	// Pipeline state (PipelineDepth > 1 only). jobs carries one audit
	// job per committed slot to the audit stage (capacity depth-1, so
	// at most depth slots are in flight counting the one executing);
	// acks posts one token per retired job back to the main loop;
	// inFlight is the main loop's count of unretired jobs. audGate[i]
	// tracks node i's outstanding audit duties so slot t+1 generation
	// cannot overtake the node's slot-t audit on its random stream.
	jobs      chan *auditJob
	acks      chan struct{}
	stageDone chan struct{}
	inFlight  int
	audGate   []*sync.WaitGroup
	closed    bool

	// Per-node state is ordinal-indexed: ids assigns each node a dense
	// ordinal at join, idx inverts it, and everything else is a slice
	// over ordinals — at 10k–100k nodes, slice indexing replaces a map
	// probe on every hot-path touch and the per-node bookkeeping costs
	// a few words instead of map buckets. engines[i]/validators[i] are
	// nil for silenced nodes, behaviors[i] is nil for honest ones.
	ids        []identity.NodeID
	idx        map[identity.NodeID]int
	engines    []*core.Engine
	validators []*core.Validator
	behaviors  []attack.Behavior
	periods    []int
	// vcache is the one process-wide header-verification cache every
	// validator shares.
	vcache *block.VerifyCache
	// chunk is the resolved phase chunk size (Config.ChunkSize or auto).
	chunk int
	// nodeRNG[i] is node i's private random stream; all of a node's
	// per-slot draws (body bytes, audit target, selection tie-breaks)
	// come from it, so slot outcomes are independent of worker
	// scheduling.
	nodeRNG []*rand.Rand
	// vmu[i] serializes externally driven audits per validator
	// (AuditFrom): a validator's RNG stream is not safe for concurrent
	// draws.
	vmu []*sync.Mutex
	// fenceFree recycles audit-job fence slices between the main loop
	// and the audit stage (the channel provides the happens-before
	// edge), so pipelined slots at 10k nodes stop allocating an
	// O(nodes) view slice each.
	fenceFree chan []ledger.View

	comm         []*commCell
	retainedBits []int64
	blockLog     []loggedBlock
	slot         int
	// storeBits[i] is node i's running S_i footprint under the size
	// model, maintained at append time by the main loop so the slot
	// boundary can freeze Σ storeBits without touching store locks
	// while pipelined audits read them.
	storeBits []int64
	// eligibleHi memoizes eligibleTargets' scan frontier (the cutoff is
	// monotone in the slot, so the prefix only ever grows).
	eligibleHi int

	// Announcement scratch, reused across flushes so the batched
	// phase 2 allocates nothing per slot: annSenders/annDigests hold
	// one flush's (sender, digest) pairs in slot order; annFrom[j] and
	// annDigs[j] are receiver j's batch columns; annRecvs lists the
	// receivers touched by the current flush and annErrs their
	// per-receiver delivery errors.
	annSenders []identity.NodeID
	annDigests []digest.Digest
	annFrom    [][]identity.NodeID
	annDigs    [][]digest.Digest
	annRecvs   []int
	annErrs    []error
	annNbs     []identity.NodeID

	// counters aggregates audit outcomes from the typed event stream —
	// the Report's Audits/Failures derive from it rather than from
	// ad-hoc tallies. obs additionally fans events out to the
	// user-configured observer; it is never nil (it always wraps
	// counters at least).
	counters *metrics.EventCounters
	obs      events.Observer

	// snappedSlot is the newest slot already appended to the report
	// series, making snapshot idempotent per slot: the slotted
	// scheduler snapshots at the end of every Step, the external drive
	// on AdvanceSlot, and Finalize closes a still-open final slot.
	snappedSlot int

	report *Report
}

// Report accumulates the per-slot series and final per-node samples the
// figures need.
type Report struct {
	// AvgStorageBits[s] is the mean per-node storage after slot s+1.
	AvgStorageBits []int64
	// AvgCommBits / AvgConstructionBits / AvgConsensusBits are mean
	// cumulative per-node transmissions after each slot.
	AvgCommBits         []int64
	AvgConstructionBits []int64
	AvgConsensusBits    []int64
	// Final per-node samples (CDF inputs).
	NodeStorageBits []int64
	NodeCommBits    []int64
	// Audits/Failures count PoP verifications run as audit duty.
	Audits, Failures int
	// Blocks is the total generated block count (Prop. 1's |B|).
	Blocks int
	// Mem holds the end-of-run heap sample when Config.SampleMemStats is
	// set; nil otherwise. It is process-level observability, not part of
	// the deterministic report surface.
	Mem *MemReport
}

// MemReport is the heap footprint sampled at Finalize, for scaling
// runs that report memory alongside time: bytes/node vs n is the
// headline curve of the scaling experiment. The sample is taken the
// way benchmark/ takes live_heap_mb — two runtime.GC() calls, then
// runtime.ReadMemStats — so HeapAllocBytes is what the run still
// holds, not what the collector had not got to yet, and repeats run to
// run closely enough for a CI ceiling to see a 20 % change.
type MemReport struct {
	// HeapInuseBytes is spans-in-use; HeapAllocBytes live objects.
	HeapInuseBytes  uint64
	HeapAllocBytes  uint64
	TotalAllocBytes uint64
	NumGC           uint32
	// BytesPerNode is HeapAllocBytes / |V|.
	BytesPerNode uint64
}

// New builds a simulation.
func New(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Graph
	if g == nil {
		var err error
		g, err = topology.Generate(cfg.Topo)
		if err != nil {
			return nil, fmt.Errorf("sim: generating topology: %w", err)
		}
	}
	if cfg.SyntheticBodyBytes <= 0 {
		cfg.SyntheticBodyBytes = 32
	}
	if cfg.VerifyLag <= 0 {
		cfg.VerifyLag = g.Len()
	}
	if cfg.Behavior == "" {
		cfg.Behavior = attack.KindSilent
	}

	params := block.Params{
		Version:    block.CurrentVersion,
		Difficulty: cfg.Difficulty,
		LeafSize:   1024,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ids := g.Nodes()
	counters := &metrics.EventCounters{}
	s := &Sim{
		cfg:          cfg,
		graph:        g,
		model:        block.DefaultSizeModel(cfg.BodyBytes),
		params:       params,
		rng:          rng,
		workers:      workers,
		chunk:        cfg.ChunkSize,
		ids:          ids,
		idx:          make(map[identity.NodeID]int, len(ids)),
		engines:      make([]*core.Engine, len(ids)),
		validators:   make([]*core.Validator, len(ids)),
		behaviors:    make([]attack.Behavior, len(ids)),
		vmu:          make([]*sync.Mutex, len(ids)),
		vcache:       block.NewVerifyCache(),
		nodeRNG:      make([]*rand.Rand, len(ids)),
		comm:         make([]*commCell, len(ids)),
		retainedBits: make([]int64, len(ids)),
		storeBits:    make([]int64, len(ids)),
		periods:      make([]int, len(ids)),
		counters:     counters,
		obs:          events.Multi(counters, cfg.Observer),
		report:       &Report{},
	}
	var pairs []identity.KeyPair
	for i, id := range ids {
		s.idx[id] = i
		key := identity.Deterministic(id, cfg.Seed)
		pairs = append(pairs, key)
		// A sealed block lives once, in its owner's log; every other
		// node holds it by shared reference at most (H_i headers), and
		// all engines share the process-wide verification cache — the
		// memory shape that fits 10k–100k ledgers in one process.
		eng, err := core.NewEngineWith(key, params, g, core.EngineOptions{VerifyCache: s.vcache})
		if err != nil {
			return nil, fmt.Errorf("sim: engine %v: %w", id, err)
		}
		s.engines[i] = eng
		s.comm[i] = &commCell{}
		// A fixed per-node stream, derived from the run seed and the
		// node ID with golden-ratio mixing so nearby seeds decorrelate.
		s.nodeRNG[i] = rand.New(rand.NewSource(nodeSeed(cfg.Seed, id)))
		s.vmu[i] = &sync.Mutex{}
		s.periods[i] = 1
		if cfg.RandomPeriodMax >= 2 {
			s.periods[i] = 1 + rng.Intn(cfg.RandomPeriodMax)
		}
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		return nil, fmt.Errorf("sim: building ring: %w", err)
	}
	s.ring = ring
	for id, b := range attack.Assign(ids, cfg.Malicious, cfg.Behavior, rng) {
		s.behaviors[s.idx[id]] = b
	}
	for i, id := range ids {
		v, err := s.newValidator(id, i)
		if err != nil {
			return nil, fmt.Errorf("sim: validator %v: %w", id, err)
		}
		s.validators[i] = v
	}
	s.pool = par.NewPool(workers)
	if cfg.PipelineDepth > 1 {
		s.audPool = par.NewPool(workers)
		s.jobs = make(chan *auditJob, cfg.PipelineDepth-1)
		s.acks = make(chan struct{}, cfg.PipelineDepth)
		s.stageDone = make(chan struct{})
		s.fenceFree = make(chan []ledger.View, cfg.PipelineDepth+1)
		s.audGate = make([]*sync.WaitGroup, len(ids))
		for i := range s.audGate {
			s.audGate[i] = &sync.WaitGroup{}
		}
		go s.auditStage()
	}
	return s, nil
}

// newValidator builds node id's persistent validator over the shared
// ring, topology and verification cache.
func (s *Sim) newValidator(id identity.NodeID, i int) (*core.Validator, error) {
	trust := s.engines[i].Trust()
	if s.cfg.DisableTrust {
		trust = nil
	} else if s.cfg.TrustCap > 0 {
		trust.SetCap(s.cfg.TrustCap)
	}
	return core.NewValidator(core.ValidatorConfig{
		Self:        id,
		Gamma:       s.cfg.Gamma,
		Params:      s.params,
		Ring:        s.ring,
		Topo:        s.graph,
		Trust:       trust,
		Strategy:    s.cfg.Strategy,
		RNG:         s.nodeRNG[i],
		StepBudget:  s.cfg.StepBudget,
		VerifyCache: s.engines[i].VerifyCache(),
	})
}

// engineOf resolves a node ID to its live engine; ok is false for
// unknown and silenced nodes alike.
func (s *Sim) engineOf(id identity.NodeID) (*core.Engine, bool) {
	i, known := s.idx[id]
	if !known || s.engines[i] == nil {
		return nil, false
	}
	return s.engines[i], true
}

// behaviorOf returns node id's attack behavior (Honest for everyone
// not assigned one).
func (s *Sim) behaviorOf(id identity.NodeID) attack.Behavior {
	if i, known := s.idx[id]; known && s.behaviors[i] != nil {
		return s.behaviors[i]
	}
	return attack.Honest{}
}

// Close drains any in-flight audit slots and releases the scheduler's
// persistent goroutines (worker pools and the audit stage). The
// accumulated report stays readable through Finalize; Step, Run and
// the external-drive verbs must not be called afterwards. Idempotent.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.drain()
	if s.jobs != nil {
		close(s.jobs)
		<-s.stageDone
	}
	s.pool.Close()
	s.audPool.Close()
}

// Graph returns the physical topology.
func (s *Sim) Graph() *topology.Graph { return s.graph }

// Ring returns the shared public-key registry.
func (s *Sim) Ring() *identity.Ring { return s.ring }

// Model returns the analytic size model in use.
func (s *Sim) Model() block.SizeModel { return s.model }

// Stores returns every live node's block store (for DAG analysis).
func (s *Sim) Stores() map[identity.NodeID]*ledger.Store {
	s.drain()
	out := make(map[identity.NodeID]*ledger.Store, len(s.ids))
	for i, id := range s.ids {
		if s.engines[i] != nil {
			out[id] = s.engines[i].Store()
		}
	}
	return out
}

// MaliciousNodes returns the IDs assigned a malicious behavior, in
// arbitrary order.
func (s *Sim) MaliciousNodes() []identity.NodeID {
	var out []identity.NodeID
	for i, id := range s.ids {
		if s.behaviors[i] != nil {
			out = append(out, id)
		}
	}
	return out
}

// Slot returns the number of completed slots.
func (s *Sim) Slot() int { return s.slot }

// headerModelBits is f_c + f_H·|Δ| for a concrete header.
func (s *Sim) headerModelBits(h *block.Header) int64 {
	return int64(s.model.ConstantBits() + s.model.FH*len(h.Digests))
}

// blockModelBits adds the C-bit body (Eq. 2).
func (s *Sim) blockModelBits(h *block.Header) int64 {
	return s.headerModelBits(h) + int64(s.model.C)
}

// Step advances one slot in three phases:
//
//  1. Generation — every node due this slot mines its block from its
//     start-of-slot digest cache, in parallel (a node's generation only
//     touches its own engine and RNG stream).
//  2. Announcement — the slot's digests are grouped by receiver and
//     ingested as one per-receiver batch (Engine.OnDigestBatch) on the
//     worker pool: each receiver's A_i is touched by exactly one
//     goroutine, so delivery parallelizes without contention. Inside a
//     batch the (sender, digest) pairs keep slot order — the order the
//     serial scheduler would have applied them — so cache contents are
//     bit-identical to singleton delivery.
//  3. Audit duty — each generating honest node runs one PoP audit, in
//     parallel; responder comm charges are atomic, and all random
//     draws come from the auditing node's own stream.
//
// Every slot keeps synchronous semantics: blocks generated in slot t
// reference digests announced in slots < t, and audits in slot t see
// all blocks through slot t. With PipelineDepth ≤ 1 the phases run
// under full barriers. With a deeper pipeline, phase 3 is packaged as
// an audit job at the slot boundary — target eligibility, per-store
// fences (ledger.View) and the boundary's frozen storage/construction
// sums — and handed to the persistent audit stage, letting Step return
// and the next slot generate while the job verifies; per-node audGate
// ordering keeps each node's random stream in barriered draw order.
// Either way the report is a pure function of the Config, independent
// of worker count and pipeline depth.
func (s *Sim) Step() error {
	if s.closed {
		return fmt.Errorf("%w: Step on a closed simulation", ErrBadConfig)
	}
	s.slot++
	var gens []int
	for i := range s.ids {
		if s.engines[i] == nil {
			continue // silenced via dynamic membership
		}
		if (s.slot-1)%s.periods[i] == 0 {
			gens = append(gens, i)
		}
	}

	// Phase 1: parallel block generation, chunked so each worker claims
	// a contiguous range of generators and reuses one body buffer across
	// it (Engine's Build copies the body out). Which worker generates
	// which node is irrelevant to the outcome: every draw comes from the
	// node's own stream.
	type genResult struct {
		ref  block.Ref
		dig  digest.Digest
		bits int64
		err  error
	}
	results := make([]genResult, len(gens))
	s.pool.RunChunked(len(gens), s.chunk, func(lo, hi int) {
		body := make([]byte, s.cfg.SyntheticBodyBytes)
		for k := lo; k < hi; k++ {
			i := gens[k]
			id := s.ids[i]
			if s.audGate != nil {
				// Pipelined: the node's outstanding audit duties draw from
				// the same random stream — let them finish first so the
				// stream keeps its barriered order.
				s.audGate[i].Wait()
			}
			s.nodeRNG[i].Read(body)
			b, d, err := s.engines[i].Generate(uint32(s.slot), body)
			if err != nil {
				results[k] = genResult{err: fmt.Errorf("sim: slot %d: %w", s.slot, err)}
				continue
			}
			// DAG construction traffic: one digest per neighbor (Sec. III-D).
			deg := s.graph.Degree(id)
			s.comm[i].add(metrics.Construction, int64(deg)*int64(s.model.DigestBits()))
			s.obs.OnBlockSealed(events.BlockSealed{
				Node: id, Ref: b.Header.Ref(), Digest: d, Slot: uint32(s.slot),
			})
			results[k] = genResult{ref: b.Header.Ref(), dig: d, bits: s.blockModelBits(&b.Header)}
		}
	})

	// Phase 2: bookkeeping in node order, then receiver-centric batched
	// announcement on the worker pool. The whole slot's generation must
	// validate before anything is announced (sealed-delivery contract:
	// a slot's announcements flush atomically or not at all).
	senders := s.annSenders[:0]
	digs := s.annDigests[:0]
	for k, i := range gens {
		r := results[k]
		if r.err != nil {
			return r.err
		}
		senders = append(senders, s.ids[i])
		digs = append(digs, r.dig)
		s.storeBits[i] += r.bits
		s.blockLog = append(s.blockLog, loggedBlock{ref: r.ref, slot: s.slot})
		s.report.Blocks++
	}
	s.annSenders, s.annDigests = senders, digs
	if err := s.deliverBatched(senders, digs); err != nil {
		return err
	}

	// Phase 3: audit duty for honest generators, packaged as one job
	// per slot. Barriered mode runs it inline; pipelined mode hands it
	// to the audit stage and lets the next slot generate meanwhile.
	job := s.buildAuditJob(gens)
	if s.jobs != nil {
		for _, i := range job.auditors {
			s.audGate[i].Add(1)
		}
		s.reapAcks()
		s.jobs <- job
		s.inFlight++
	} else {
		s.runAuditJob(job)
	}
	return nil
}

// auditJob is one slot's audit duty plus everything the audit stage
// needs to execute and retire it without touching in-flight main-loop
// state: the slot-boundary fences over every store, the frozen
// eligible-target prefix, and the boundary's storage/construction
// sums for the slot's report snapshot.
type auditJob struct {
	slot     int
	auditors []int
	// targets is the block log as of the slot boundary; only indexes
	// below eligible are read (later appends land beyond them).
	targets  []loggedBlock
	eligible int
	// fence[i] is node i's immutable-prefix store view at the slot
	// boundary; nil (barriered mode) reads live stores, which phase
	// barriers already freeze.
	fence []ledger.View
	// storeSum is Σ live-node S_i model bits and constrSum the total
	// construction traffic at the slot boundary, both frozen by the
	// main loop because slot t+1 generation mutates them while this
	// slot's audits run.
	storeSum  int64
	constrSum int64
}

// buildAuditJob freezes slot s.slot's audit duty at the generation/
// announcement commit point.
func (s *Sim) buildAuditJob(gens []int) *auditJob {
	job := &auditJob{slot: s.slot}
	if !s.cfg.DisableAudits {
		for _, i := range gens {
			if s.behaviors[i] == nil {
				job.auditors = append(job.auditors, i)
			}
		}
	}
	job.eligible = s.eligibleTargets()
	job.targets = s.blockLog
	if s.jobs != nil {
		// Fence slices recycle through fenceFree once their slot
		// retires; every entry is rewritten here (zero View for
		// silenced nodes), so a recycled slice carries no stale state.
		select {
		case job.fence = <-s.fenceFree:
		default:
		}
		if cap(job.fence) < len(s.ids) {
			job.fence = make([]ledger.View, len(s.ids))
		}
		job.fence = job.fence[:len(s.ids)]
		for i := range s.ids {
			if eng := s.engines[i]; eng != nil {
				job.fence[i] = eng.Store().View()
			} else {
				job.fence[i] = ledger.View{}
			}
		}
	}
	for i := range s.ids {
		if s.engines[i] != nil {
			job.storeSum += s.storeBits[i]
		}
		job.constrSum += s.comm[i].construction.Load()
	}
	return job
}

// runAuditJob executes one slot's audits on the audit stage's pool
// (or the main pool in barriered mode) and retires the slot into the
// report. Jobs run strictly in slot order, so the post-audit state it
// reads (trust stores, retained bits, consensus traffic) is exactly
// the barriered schedule's end-of-slot state. Audits are chunked like
// the other phases; every audit draws only from its own node's stream
// and charges comm atomically, so the partition is outcome-neutral.
func (s *Sim) runAuditJob(job *auditJob) {
	pool := s.audPool
	if pool == nil {
		pool = s.pool
	}
	pool.RunChunked(len(job.auditors), s.chunk, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := job.auditors[k]
			s.auditDuty(i, job)
			if s.audGate != nil {
				s.audGate[i].Done()
			}
		}
	})
	s.snapshotSlot(job)
}

// auditStage is the pipeline's persistent audit goroutine: it executes
// queued audit jobs FIFO and posts one ack per retired slot.
func (s *Sim) auditStage() {
	for job := range s.jobs {
		s.runAuditJob(job)
		if job.fence != nil {
			select {
			case s.fenceFree <- job.fence:
			default:
			}
		}
		s.acks <- struct{}{}
	}
	close(s.stageDone)
}

// reapAcks consumes completion acks the audit stage already posted,
// without blocking.
func (s *Sim) reapAcks() {
	for s.inFlight > 0 {
		select {
		case <-s.acks:
			s.inFlight--
		default:
			return
		}
	}
}

// drain blocks until every enqueued audit job has retired. The
// external-drive and inspection verbs call it so anything observed
// outside Step — reports, stores, membership — reflects a fully
// settled pipeline; at depth ≤ 1 (or on a pure external-drive Sim) it
// is a no-op.
func (s *Sim) drain() {
	for s.inFlight > 0 {
		<-s.acks
		s.inFlight--
	}
}

// announce delivers a freshly sealed digest to every live neighbor's
// A_i cache, emitting the receiver-side DigestAnnounced event. It is
// the singleton shim over the batched delivery path (deliverBatched),
// kept for one-at-a-time external drive (SubmitAs/AnnounceAs).
func (s *Sim) announce(id identity.NodeID, d digest.Digest) error {
	s.annNbs = s.graph.AppendNeighbors(s.annNbs[:0], id)
	for _, nb := range s.annNbs {
		eng, live := s.engineOf(nb)
		if !live {
			continue // silenced neighbors miss the announcement
		}
		if err := eng.OnDigest(id, d); err != nil {
			return fmt.Errorf("sim: announcing %v -> %v: %w", id, nb, err)
		}
		s.obs.OnDigestAnnounced(events.DigestAnnounced{From: id, To: nb, Digest: d})
	}
	return nil
}

// deliverBatched is the receiver-centric announcement path: one
// flush's (froms[i] announced ds[i]) pairs are grouped by receiving
// neighbor and ingested as one Engine.OnDigestBatch call per receiver
// on the worker pool. Each receiver's cache is touched by exactly one
// goroutine, so the phase parallelizes contention-free, and every
// batch keeps its pairs in flush order — bit-identical cache contents
// to serial singleton delivery, for any worker count. Silenced
// neighbors miss the flush, like a dead radio. The per-receiver
// scratch columns are reused across flushes, so a full slot's
// delivery allocates nothing.
func (s *Sim) deliverBatched(froms []identity.NodeID, ds []digest.Digest) error {
	for len(s.annFrom) < len(s.ids) {
		s.annFrom = append(s.annFrom, nil)
		s.annDigs = append(s.annDigs, nil)
	}
	recvs := s.annRecvs[:0]
	for k, from := range froms {
		nbs := s.graph.AppendNeighbors(s.annNbs[:0], from)
		s.annNbs = nbs
		for _, nb := range nbs {
			j, known := s.idx[nb]
			if !known || s.engines[j] == nil {
				continue // silenced neighbors miss the announcement
			}
			if len(s.annFrom[j]) == 0 {
				recvs = append(recvs, j)
			}
			s.annFrom[j] = append(s.annFrom[j], from)
			s.annDigs[j] = append(s.annDigs[j], ds[k])
		}
	}
	s.annRecvs = recvs
	errs := s.annErrs[:0]
	for range recvs {
		errs = append(errs, nil)
	}
	s.annErrs = errs
	s.pool.RunChunked(len(recvs), s.chunk, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			j := recvs[k]
			to := s.ids[j]
			if err := s.engines[j].OnDigestBatch(s.annFrom[j], s.annDigs[j]); err != nil {
				errs[k] = fmt.Errorf("sim: delivering batch to %v: %w", to, err)
				continue
			}
			s.obs.OnDigestBatchDelivered(events.DigestBatchDelivered{
				To: to, From: s.annFrom[j], Digests: s.annDigs[j],
			})
		}
	})
	var first error
	for _, err := range errs {
		if err != nil {
			first = err
			break
		}
	}
	for _, j := range recvs {
		s.annFrom[j] = s.annFrom[j][:0]
		s.annDigs[j] = s.annDigs[j][:0]
	}
	return first
}

// auditDuty runs one PoP verification of a random sufficiently old
// block (Sec. VI: a node acts as validator whenever it generates).
// Outcomes flow through the typed event stream; retained-storage
// accounting goes straight to the auditor's own slot.
func (s *Sim) auditDuty(i int, job *auditJob) {
	id := s.ids[i]
	target, ok := s.pickTarget(i, job)
	if !ok {
		return
	}
	f := &simFetcher{sim: s, validator: id, fence: job.fence}
	res, err := s.validators[i].Verify(context.Background(), target, f)
	s.observeOutcome(id, target, res, err)
	if err == nil && res.Consensus && s.cfg.RetainVerifiedBlocks {
		// The validator holds on to the retrieved block (header+body).
		s.retainedBits[i] += s.blockModelBits(res.Path[0].Header)
	}
}

// observeOutcome emits the terminal audit event for a verification.
func (s *Sim) observeOutcome(v identity.NodeID, target block.Ref, res *core.Result, err error) {
	if err == nil && res.Consensus {
		s.obs.OnConsensusReached(events.ConsensusReached{
			Validator: v, Target: target, Vouchers: res.Vouchers,
			PathLen: len(res.Path), Messages: res.MessagesSent + res.MessagesReceived,
			TrustHits: res.TrustHits,
		})
		return
	}
	s.obs.OnAuditFailed(events.AuditFailed{Validator: v, Target: target, Err: err})
}

// eligibleTargets returns the length of the blockLog prefix old enough
// to audit this slot (blockLog is sorted by slot). The cutoff is
// monotone in the slot, so the scan resumes from the last frontier.
func (s *Sim) eligibleTargets() int {
	cutoff := s.slot - s.cfg.VerifyLag
	if cutoff < 1 {
		return 0
	}
	hi := s.eligibleHi
	for hi < len(s.blockLog) && s.blockLog[hi].slot <= cutoff {
		hi++
	}
	s.eligibleHi = hi
	return hi
}

// pickTarget selects a uniformly random eligible block not generated by
// the validator itself, drawing from the validator's own RNG stream.
// Candidates come from the job's boundary-frozen log prefix.
func (s *Sim) pickTarget(i int, job *auditJob) (block.Ref, bool) {
	if job.eligible == 0 {
		return block.Ref{}, false
	}
	validator := s.ids[i]
	for tries := 0; tries < 8; tries++ {
		cand := job.targets[s.nodeRNG[i].Intn(job.eligible)]
		if cand.ref.Node != validator {
			return cand.ref, true
		}
	}
	return block.Ref{}, false
}

// snapshotSlot retires one slot into the report: storage combines the
// boundary-frozen store sum with post-audit retention and trust
// state, and communication combines the boundary-frozen construction
// sum with post-audit consensus traffic. Because audit jobs retire
// strictly in slot order, these reads equal the barriered schedule's
// end-of-slot values bit for bit.
func (s *Sim) snapshotSlot(job *auditJob) {
	if s.snappedSlot >= job.slot {
		return
	}
	s.snappedSlot = job.slot
	storage := job.storeSum
	var cons int64
	for i := range s.ids {
		if eng := s.engines[i]; eng != nil {
			storage += s.retainedBits[i]
			if !s.cfg.DisableTrust {
				storage += eng.Trust().ModelBits(s.model)
			}
		}
		cons += s.comm[i].consensus.Load()
	}
	n := int64(len(s.ids))
	r := s.report
	r.AvgStorageBits = append(r.AvgStorageBits, storage/n)
	r.AvgCommBits = append(r.AvgCommBits, (job.constrSum+cons)/n)
	r.AvgConstructionBits = append(r.AvgConstructionBits, job.constrSum/n)
	r.AvgConsensusBits = append(r.AvgConsensusBits, cons/n)
}

// snapshot appends the current slot's aggregate points to the report,
// at most once per slot — the external-drive flavor (AdvanceSlot,
// Finalize) that reads everything live; the slotted scheduler retires
// slots through snapshotSlot instead.
func (s *Sim) snapshot() {
	if s.slot == 0 || s.snappedSlot >= s.slot {
		return
	}
	s.snappedSlot = s.slot
	var storage, comm, constr, cons int64
	for i, id := range s.ids {
		storage += s.storageBits(id)
		comm += s.comm[i].totalBits()
		constr += s.comm[i].construction.Load()
		cons += s.comm[i].consensus.Load()
	}
	n := int64(len(s.ids))
	r := s.report
	r.AvgStorageBits = append(r.AvgStorageBits, storage/n)
	r.AvgCommBits = append(r.AvgCommBits, comm/n)
	r.AvgConstructionBits = append(r.AvgConstructionBits, constr/n)
	r.AvgConsensusBits = append(r.AvgConsensusBits, cons/n)
}

// storageBits is the node's total footprint under the size model.
// Silenced nodes contribute nothing (their state left the network).
func (s *Sim) storageBits(id identity.NodeID) int64 {
	eng, live := s.engineOf(id)
	if !live {
		return 0
	}
	total := eng.Store().ModelBits(s.model) + s.retainedBits[s.idx[id]]
	if !s.cfg.DisableTrust {
		total += eng.Trust().ModelBits(s.model)
	}
	return total
}

// Run executes cfg.Slots steps and finalizes the report.
func (s *Sim) Run() (*Report, error) {
	for s.slot < s.cfg.Slots {
		if err := s.Step(); err != nil {
			s.drain()
			return nil, err
		}
	}
	return s.Finalize(), nil
}

// RunSlots advances the slotted scheduler n more slots (n Step calls)
// without finalizing, so callers that reach the Sim through the public
// Runtime facade can drive the same generation/announcement/audit
// schedule the figures use and read the report with Finalize. Slots
// pipeline freely inside one call (PipelineDepth); the pipeline is
// drained before returning, so whatever follows — more RunSlots,
// membership changes, audits — observes fully settled state. Do not
// mix RunSlots with the external-drive verbs (SubmitAs, AuditFrom) on
// the same Sim.
func (s *Sim) RunSlots(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			s.drain()
			return err
		}
	}
	s.drain()
	return nil
}

// Finalize fills the per-node samples and returns the report. Audit
// totals come from the event counters, so externally driven audits
// (AuditFrom) count alongside per-slot audit duty; an externally
// driven run's still-open final slot is snapshotted here. In-flight
// pipelined audit slots retire first.
func (s *Sim) Finalize() *Report {
	s.drain()
	s.snapshot()
	r := s.report
	r.Audits, r.Failures = int(s.counters.Audits()), int(s.counters.AuditsFailed())
	r.NodeStorageBits = make([]int64, len(s.ids))
	r.NodeCommBits = make([]int64, len(s.ids))
	for i, id := range s.ids {
		r.NodeStorageBits[i] = s.storageBits(id)
		r.NodeCommBits[i] = s.comm[i].totalBits()
	}
	if s.cfg.SampleMemStats && r.Mem == nil {
		// The second collection frees what the first one's finalizers
		// and sync.Pool victim caches released.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.Mem = &MemReport{
			HeapInuseBytes:  ms.HeapInuse,
			HeapAllocBytes:  ms.HeapAlloc,
			TotalAllocBytes: ms.TotalAlloc,
			NumGC:           ms.NumGC,
			BytesPerNode:    ms.HeapAlloc / uint64(len(s.ids)),
		}
	}
	return r
}

// The methods below drive a Sim externally, one protocol verb at a
// time, instead of via the slotted Step schedule. They power the
// public Runtime facade's deterministic-simulator driver: the same
// engines, fetcher accounting and attack behaviors, but generation and
// audits happen exactly when the caller says so. Do not mix external
// drive with Step on the same Sim, and do not call membership methods
// (JoinNode, Silence) concurrently with submissions or audits. Every
// verb below first drains in-flight pipelined audit slots, so a
// RunSlots phase may be followed by external drive or membership
// changes — the pipeline settles at the hand-off, keeping the run
// equivalent to the barriered schedule.

// AdvanceSlot closes the current logical slot — appending its
// aggregate storage/comm sample to the report, mirroring Step's
// per-slot snapshot — and begins the next one. Blocks submitted
// afterwards carry the new slot in their Time field.
func (s *Sim) AdvanceSlot() {
	s.drain()
	s.snapshot()
	s.slot++
}

// SubmitAs makes node id seal body into its next block and announce
// the digest to its live neighbors, charging construction traffic to
// the size model exactly as the slotted scheduler does.
func (s *Sim) SubmitAs(id identity.NodeID, body []byte) (block.Ref, error) {
	ref, d, err := s.GenerateAs(id, body)
	if err != nil {
		return block.Ref{}, err
	}
	if err := s.AnnounceAs(id, d); err != nil {
		return block.Ref{}, err
	}
	return ref, nil
}

// GenerateAs seals node id's next block from body without announcing
// it, returning the block ref and the digest to announce. Batch
// submitters generate a whole slot's blocks first and then flush all
// announcements with AnnounceAs, mirroring the slotted scheduler's
// generation/announcement phase split.
func (s *Sim) GenerateAs(id identity.NodeID, body []byte) (block.Ref, digest.Digest, error) {
	s.drain()
	i, known := s.idx[id]
	if !known || s.engines[i] == nil {
		return block.Ref{}, digest.Digest{}, fmt.Errorf("sim: unknown or silenced node %v", id)
	}
	eng := s.engines[i]
	b, d, err := eng.Generate(uint32(s.slot), body)
	if err != nil {
		return block.Ref{}, digest.Digest{}, fmt.Errorf("sim: slot %d: %w", s.slot, err)
	}
	s.storeBits[i] += s.blockModelBits(&b.Header)
	s.comm[i].add(metrics.Construction, int64(s.graph.Degree(id))*int64(s.model.DigestBits()))
	s.obs.OnBlockSealed(events.BlockSealed{
		Node: id, Ref: b.Header.Ref(), Digest: d, Slot: uint32(s.slot),
	})
	s.blockLog = append(s.blockLog, loggedBlock{ref: b.Header.Ref(), slot: s.slot})
	s.report.Blocks++
	return b.Header.Ref(), d, nil
}

// AnnounceAs delivers a digest returned by GenerateAs to id's live
// neighbors, one at a time (the singleton path; batch submitters use
// AnnounceBatch).
func (s *Sim) AnnounceAs(id identity.NodeID, d digest.Digest) error {
	s.drain()
	return s.announce(id, d)
}

// AnnounceBatch flushes a whole batch of digests returned by
// GenerateAs — froms[i] announced ds[i] — through the same
// receiver-centric delivery the slotted scheduler uses: grouped by
// receiving neighbor, one batch ingest per receiver on the worker
// pool, pairs in flush order. This is the external-drive verb behind
// the public SubmitBatch.
func (s *Sim) AnnounceBatch(froms []identity.NodeID, ds []digest.Digest) error {
	s.drain()
	if len(froms) != len(ds) {
		return fmt.Errorf("sim: announce batch length mismatch: %d senders, %d digests", len(froms), len(ds))
	}
	for _, id := range froms {
		if _, live := s.engineOf(id); !live {
			return fmt.Errorf("sim: unknown or silenced node %v", id)
		}
	}
	return s.deliverBatched(froms, ds)
}

// BlockOf fetches a block from its origin's store (display and sample
// proofs). The result is shared sealed store state — read-only.
func (s *Sim) BlockOf(ref block.Ref) (*block.Block, error) {
	s.drain()
	eng, live := s.engineOf(ref.Node)
	if !live {
		return nil, fmt.Errorf("sim: unknown or silenced node %v", ref.Node)
	}
	return eng.Store().Get(ref.Seq)
}

// AuditFrom runs a PoP verification from the given validator's
// persistent validator (H_i and the verification cache carry over
// between audits, as on a live node). Safe for concurrent use across
// distinct validators; audits from the same validator serialize on a
// per-validator mutex because its RNG stream is not concurrency-safe.
func (s *Sim) AuditFrom(ctx context.Context, validator identity.NodeID, target block.Ref) (*core.Result, error) {
	s.drain()
	i, known := s.idx[validator]
	if !known || s.validators[i] == nil {
		return nil, fmt.Errorf("sim: unknown or silenced validator %v", validator)
	}
	v := s.validators[i]
	mu := s.vmu[i]
	mu.Lock()
	res, err := v.Verify(ctx, target, &simFetcher{sim: s, validator: validator})
	mu.Unlock()
	s.observeOutcome(validator, target, res, err)
	return res, err
}

// JoinNode registers a node that was already added to the shared
// topology: deterministic identity from the run seed, a fresh engine
// and persistent validator, and zeroed accounting. The id must be new
// to the simulation.
func (s *Sim) JoinNode(id identity.NodeID) error {
	s.drain()
	if _, known := s.idx[id]; known {
		return fmt.Errorf("sim: node %v already known", id)
	}
	if !s.graph.Has(id) {
		return fmt.Errorf("sim: joiner %v not in topology", id)
	}
	key := identity.Deterministic(id, s.cfg.Seed)
	if err := s.ring.Register(key.ID, key.Public); err != nil {
		return fmt.Errorf("sim: registering joiner: %w", err)
	}
	eng, err := core.NewEngineWith(key, s.params, s.graph, core.EngineOptions{VerifyCache: s.vcache})
	if err != nil {
		return fmt.Errorf("sim: joiner engine: %w", err)
	}
	i := len(s.ids)
	s.idx[id] = i
	s.ids = append(s.ids, id)
	s.engines = append(s.engines, eng)
	s.behaviors = append(s.behaviors, nil)
	s.comm = append(s.comm, &commCell{})
	s.retainedBits = append(s.retainedBits, 0)
	s.storeBits = append(s.storeBits, 0)
	s.periods = append(s.periods, 1)
	s.nodeRNG = append(s.nodeRNG, rand.New(rand.NewSource(nodeSeed(s.cfg.Seed, id))))
	s.vmu = append(s.vmu, &sync.Mutex{})
	if s.audGate != nil {
		s.audGate = append(s.audGate, &sync.WaitGroup{})
	}
	v, err := s.newValidator(id, i)
	if err != nil {
		return fmt.Errorf("sim: joiner validator: %w", err)
	}
	s.validators = append(s.validators, v)
	return nil
}

// Silenced reports whether id is known to the simulation but no
// longer live (its engine was removed by Silence).
func (s *Sim) Silenced(id identity.NodeID) bool {
	i, known := s.idx[id]
	return known && s.engines[i] == nil
}

// Silence takes a node offline: its engine and validator leave the
// network, so PoP requests to it time out (the silent-attack shape)
// and subsequent audits must route around it. The node stays in the
// topology, exactly like a crashed radio.
func (s *Sim) Silence(id identity.NodeID) error {
	s.drain()
	i, known := s.idx[id]
	if !known || s.engines[i] == nil {
		return fmt.Errorf("sim: unknown or already silenced node %v", id)
	}
	s.engines[i] = nil
	s.validators[i] = nil
	return nil
}

// Verify runs a one-off PoP verification from the given validator with
// a fresh, cache-less validator instance (used by the consensus-probe
// experiment so probes stay independent).
func (s *Sim) Verify(validator identity.NodeID, target block.Ref) (*core.Result, error) {
	s.drain()
	v, err := core.NewValidator(core.ValidatorConfig{
		Self:       validator,
		Gamma:      s.cfg.Gamma,
		Params:     s.params,
		Ring:       s.ring,
		Topo:       s.graph,
		Strategy:   s.cfg.Strategy,
		RNG:        s.rng,
		StepBudget: s.cfg.StepBudget,
	})
	if err != nil {
		return nil, err
	}
	return v.Verify(context.Background(), target, &simFetcher{sim: s, validator: validator})
}

// BlockAt returns the ref of the i-th generated block and its slot.
func (s *Sim) BlockAt(i int) (block.Ref, int, error) {
	s.drain()
	if i < 0 || i >= len(s.blockLog) {
		return block.Ref{}, 0, fmt.Errorf("%w: block index %d of %d", ErrBadConfig, i, len(s.blockLog))
	}
	lb := s.blockLog[i]
	return lb.ref, lb.slot, nil
}

// BlockCount returns the number of generated blocks.
func (s *Sim) BlockCount() int { return len(s.blockLog) }

// IsMalicious reports whether id carries a malicious behavior.
func (s *Sim) IsMalicious(id identity.NodeID) bool {
	i, known := s.idx[id]
	return known && s.behaviors[i] != nil
}

// simFetcher resolves PoP requests against the simulation state,
// applying attack behaviors and charging every transmission to the
// paper's size model.
type simFetcher struct {
	sim       *Sim
	validator identity.NodeID
	// fence, when non-nil, bounds every responder read at the audit's
	// slot boundary (fence[idx] is node idx's immutable-prefix store
	// view), so pipelined audits never observe blocks the next slot's
	// generation is appending concurrently. Nil reads live stores —
	// the barriered schedule, where phase barriers freeze them.
	fence []ledger.View
}

var _ core.Fetcher = (*simFetcher)(nil)

func (f *simFetcher) behavior(j identity.NodeID) attack.Behavior {
	return f.sim.behaviorOf(j)
}

// RequestChild implements core.Fetcher with Algorithm 4 semantics.
func (f *simFetcher) RequestChild(_ context.Context, j identity.NodeID, target digest.Digest) (*block.Header, error) {
	s := f.sim
	s.obs.OnAuditHop(events.AuditHop{Validator: f.validator, Responder: j, Target: target})
	// Validator transmits REQ_CHILD (a digest-sized request).
	s.comm[s.idx[f.validator]].add(metrics.Consensus, int64(s.model.DigestBits()))

	var h *block.Header
	var err error
	eng, live := s.engineOf(j)
	if live {
		if f.fence != nil {
			h, err = core.NewResponder(f.fence[s.idx[j]]).ChildFor(target)
		} else {
			h, err = core.NewResponder(eng.Store()).ChildFor(target)
		}
	} else {
		err = core.ErrTimeout
	}
	beh := f.behavior(j)
	h, err = beh.OnChildRequest(f.validator, j, target, h, err)
	if beh.Responds() && live {
		if h != nil {
			// Responder transmits RPY_CHILD with the header.
			s.comm[s.idx[j]].add(metrics.Consensus, s.headerModelBits(h))
		} else {
			// Negative reply: digest-sized NAK.
			s.comm[s.idx[j]].add(metrics.Consensus, int64(s.model.DigestBits()))
		}
	}
	return h, err
}

// FetchBlock implements core.Fetcher.
func (f *simFetcher) FetchBlock(_ context.Context, ref block.Ref) (*block.Block, error) {
	s := f.sim
	s.comm[s.idx[f.validator]].add(metrics.Consensus, int64(s.model.DigestBits()))

	var b *block.Block
	var err error
	eng, live := s.engineOf(ref.Node)
	if live {
		if f.fence != nil {
			b, err = core.NewResponder(f.fence[s.idx[ref.Node]]).Block(ref)
		} else {
			b, err = core.NewResponder(eng.Store()).Block(ref)
		}
	} else {
		err = core.ErrTimeout
	}
	beh := f.behavior(ref.Node)
	b, err = beh.OnBlockRequest(f.validator, ref.Node, b, err)
	if beh.Responds() && live {
		if b != nil {
			s.comm[s.idx[ref.Node]].add(metrics.Consensus, s.blockModelBits(&b.Header))
		} else {
			s.comm[s.idx[ref.Node]].add(metrics.Consensus, int64(s.model.DigestBits()))
		}
	}
	return b, err
}

// StorageSeries renders per-slot average storage in MB.
func (r *Report) StorageSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgStorageBits {
		s.Append(float64(i+1), metrics.BitsToMB(bits))
	}
	return s
}

// CommSeries renders per-slot average cumulative total transmissions in
// Mb.
func (r *Report) CommSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgCommBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}

// ConstructionSeries renders the Fig. 8(b) line.
func (r *Report) ConstructionSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgConstructionBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}

// ConsensusSeries renders the Fig. 8(c) line.
func (r *Report) ConsensusSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgConsensusBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}
