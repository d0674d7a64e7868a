package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology"
)

// DefaultStepBudget bounds the number of candidate probes per
// verification; Prop. 6 bounds honest executions far below this.
const DefaultStepBudget = 65536

// ValidatorConfig configures a PoP validator.
type ValidatorConfig struct {
	// Self is the validator's node ID (node i of Algorithm 3).
	Self identity.NodeID
	// Gamma is the number of tolerable malicious nodes γ; consensus
	// requires γ+1 distinct vouchers.
	Gamma int
	// Params are the shared consensus constants.
	Params block.Params
	// Ring is the shared public-key registry.
	Ring *identity.Ring
	// Topo is the shared physical topology (all nodes know G(V,E)).
	Topo *topology.Graph
	// Trust is H_i. Nil disables TPS caching (the ablation baseline).
	Trust *ledger.TrustStore
	// Blacklist, when non-nil, records unresponsive peers and skips
	// banned ones (Sec. IV-D6).
	Blacklist *ledger.Blacklist
	// Avoid, when non-nil, reports peers to route around — e.g. a
	// health tracker's suspects. Unlike a blacklist ban the filter is
	// advisory: avoided peers are skipped only while a non-avoided
	// candidate remains, so they stay reachable as a last resort (which
	// doubles as the recovery probe that re-admits them). Called from
	// the audit loop — must be cheap and safe for concurrent use.
	Avoid func(identity.NodeID) bool
	// Strategy selects the next responder; nil means WPS (Alg. 1).
	Strategy SelectionStrategy
	// RNG breaks selection ties; nil keeps runs deterministic. A
	// validator given one must not run Verify concurrently.
	RNG *rand.Rand
	// StepBudget caps candidate probes; 0 means DefaultStepBudget.
	StepBudget int
	// VerifyCache remembers headers that already passed PoW + signature
	// checks, so each distinct header is cryptographically verified once
	// per node rather than once per audit hop. Nil allocates a fresh
	// private cache; share one (e.g. the engine's) across a node's
	// validators to carry hits between audits. Must not be shared across
	// different Params or Ring values.
	VerifyCache *block.VerifyCache
	// StrictPath disables the union-semantics fallback: consensus then
	// requires a single path of γ+1 distinct nodes, exactly as the
	// paper's Algorithm 3 defines it. By default, when strict path
	// construction exhausts (Algorithm 3's backtracking search is
	// incomplete — rolled-back subtrees may be viable under other
	// prefixes), Verify retries counting every node that ever produced
	// a valid child along the exploration. That is security-equivalent:
	// each such node owns a block that verifiably descends from the
	// target, so it vouches transitively (Sec. III-C), and the retry is
	// a complete decision procedure for γ+1-voucher reachability.
	StrictPath bool
}

// Validator runs Proof-of-Path verifications (Algorithm 3).
//
// A Validator holds configuration only — every Verify builds its R_i,
// path and bookkeeping afresh, and the stores it reads (H_i, the
// verification cache, the blacklist, the topology) lock for themselves
// — so one Validator serves any number of concurrent Verify calls,
// which is how a node.Node uses the single one it builds at start-up.
// The exceptions are what the caller plugs in: a ValidatorConfig.RNG
// (a *rand.Rand is not safe for concurrent use; node.Node passes none,
// the simulator runs each node's audits serially) and a Strategy or
// Avoid callback with state of its own.
type Validator struct {
	cfg      ValidatorConfig
	strategy SelectionStrategy
}

// NewValidator validates the configuration and builds a validator.
func NewValidator(cfg ValidatorConfig) (*Validator, error) {
	if cfg.Ring == nil {
		return nil, errors.New("core: ValidatorConfig.Ring is required")
	}
	if cfg.Topo == nil {
		return nil, errors.New("core: ValidatorConfig.Topo is required")
	}
	if cfg.Gamma < 0 {
		return nil, fmt.Errorf("core: negative gamma %d", cfg.Gamma)
	}
	if cfg.StepBudget == 0 {
		cfg.StepBudget = DefaultStepBudget
	}
	if cfg.VerifyCache == nil {
		cfg.VerifyCache = block.NewVerifyCache()
	}
	v := &Validator{cfg: cfg, strategy: cfg.Strategy}
	if v.strategy == nil {
		v.strategy = WPS{}
	}
	return v, nil
}

// voucherSet is R_i: the distinct node IDs vouching so far, in the
// order of each member's latest add. It is a plain slice: |R_i| never
// exceeds γ+1 (construction stops there) and γ is a fraction of an
// IoT-scale |V|, so a linear scan beats hashing and the set costs one
// allocation per attempt instead of a map.
type voucherSet struct {
	ids []identity.NodeID
}

func (s *voucherSet) add(id identity.NodeID) {
	if !s.has(id) {
		s.ids = append(s.ids, id)
	}
}

// remove deletes id, keeping the others in order; a later add of the
// same id joins at the end.
func (s *voucherSet) remove(id identity.NodeID) {
	for i, m := range s.ids {
		if m == id {
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			return
		}
	}
}

func (s *voucherSet) has(id identity.NodeID) bool {
	for _, m := range s.ids {
		if m == id {
			return true
		}
	}
	return false
}

func (s *voucherSet) len() int { return len(s.ids) }

// snapshot returns a copy of the members in order.
func (s *voucherSet) snapshot() []identity.NodeID {
	return append([]identity.NodeID(nil), s.ids...)
}

// Verify runs Algorithm 3 against the block identified by ref,
// retrieving data through f. On success the returned Result has
// Consensus == true and, when H_i is configured, every header on the
// path has been cached for future TPS hits (line 39).
func (v *Validator) Verify(ctx context.Context, ref block.Ref, f Fetcher) (*Result, error) {
	res := &Result{Target: ref}

	// Lines 1–5: retrieve the verifier's block and check the Merkle
	// root (plus PoW and signature, which the paper folds into header
	// validity).
	res.MessagesSent++
	blk, err := f.FetchBlock(ctx, ref)
	if err != nil {
		return res, fmt.Errorf("core: retrieving target %v: %w", ref, err)
	}
	res.MessagesReceived++
	// The reply must be the block that was asked for: an owner answering
	// with another of its well-attested blocks would otherwise have that
	// one audited under the requested name. Origin and Seq are inside
	// SigPreimage, so the signature check below binds the comparison.
	if got := blk.Header.Ref(); got != ref {
		return res, fmt.Errorf("%w: asked for %v, got %v", ErrInvalidBlock, ref, got)
	}
	root, err := v.cfg.Params.BlockBodyRoot(blk)
	if err != nil {
		return res, fmt.Errorf("core: hashing target body: %w", err)
	}
	if root != blk.Header.Root {
		return res, fmt.Errorf("%w: %v", ErrRootMismatch, ref)
	}
	if err := v.cfg.Params.ValidateHeaderCached(&blk.Header, v.cfg.Ring, v.cfg.VerifyCache); err != nil {
		return res, fmt.Errorf("%w: %v: %v", ErrInvalidBlock, ref, err)
	}

	err = v.construct(ctx, ref, blk, f, res, false)
	if errors.Is(err, ErrNoConsensus) && !v.cfg.StrictPath {
		// Strict path construction exhausted; retry with union
		// semantics (see ValidatorConfig.StrictPath).
		res.UnionFallback = true
		err = v.construct(ctx, ref, blk, f, res, true)
	}
	return res, err
}

// construct runs one path-construction attempt (Algorithm 3 lines
// 6–39). With union == true, vouchers survive rollbacks. Message
// counters accumulate into res across attempts.
func (v *Validator) construct(ctx context.Context, ref block.Ref, blk *block.Block, f Fetcher, res *Result, union bool) error {
	// Line 6: R_i = {j}, P_i = {b_j,t}, verifying block = target.
	// Fetched headers are owned by the validator (or shared sealed store
	// state) and never mutated here, so path steps reference them
	// directly — no per-hop clone, and Hash() is memoized. R_i and P_i
	// start with room for the γ+1 distinct vouchers consensus needs.
	vouchers := &voucherSet{ids: make([]identity.NodeID, 0, v.cfg.Gamma+1)}
	vouchers.add(ref.Node)
	hdr := &blk.Header
	path := make([]PathStep, 1, v.cfg.Gamma+2)
	path[0] = PathStep{Node: ref.Node, Header: hdr, HeaderHash: hdr.Hash()}

	budget := v.cfg.StepBudget

	// Probe and rollback bookkeeping. All of it starts nil and is made by
	// its first write (a nil map reads and clears for free), so an audit
	// that H_i satisfies outright — the warm case — builds none of it.
	var (
		// dead records blocks whose subtrees were exhausted by a
		// rollback. The paper's pseudocode resets V' = V each outer
		// iteration (line 14), which livelocks between two dead-end
		// branches when consensus is unsatisfiable; memoizing exhausted
		// blocks preserves Algorithm 3's behavior on satisfiable
		// instances while guaranteeing termination (stores are immutable
		// during one verification).
		dead map[digest.Digest]bool
		// excluded is V', the nodes rolled back past; tried is the
		// neighbors of the current verifying node already probed.
		excluded, tried map[identity.NodeID]bool
		// One SelectionState and one neighbor buffer serve every probe of
		// this attempt: strategies and candidate filtering run through
		// their scratch fields, so a probe costs no per-step allocations.
		st    *SelectionState
		nbBuf []identity.NodeID
	)

	// Lines 8–38: construct the path.
	for {
		// Line 9: extend for free from H_i (Algorithm 2).
		path = v.runTPS(path, vouchers, dead, res)

		// Lines 10–12: consensus check.
		if vouchers.len() >= v.cfg.Gamma+1 {
			res.Consensus = true
			res.Path = path
			res.Vouchers = vouchers.snapshot()
			v.cacheVerifiedPath(path, blk)
			return nil
		}

		// Lines 13–35: probe neighbors of the verifying block's origin,
		// rolling back when a node's neighborhood is exhausted. V' (the
		// exclusion set) resets at each outer iteration, per line 14.
		clear(excluded)
		clear(tried)
		advanced := false

		for !advanced {
			if err := ctx.Err(); err != nil {
				res.Path = path
				return fmt.Errorf("core: verification canceled: %w", err)
			}
			cur := path[len(path)-1]
			cands := v.candidates(cur.Node, tried, excluded, nbBuf)
			nbBuf = cands[:0]
			if len(cands) == 0 {
				// Lines 26–31: roll back past the exhausted node.
				res.Rollbacks++
				mark(&excluded, cur.Node)
				mark(&dead, cur.HeaderHash)
				if !union {
					// Line 27; with union semantics the voucher
					// stays (its block provably descends from the
					// target).
					vouchers.remove(cur.Node)
				}
				path = path[:len(path)-1]
				if len(path) == 0 || vouchers.len() == 0 {
					// Lines 32–34.
					res.Path = path
					return fmt.Errorf("%w: %v: every path exhausted", ErrNoConsensus, ref)
				}
				clear(tried)
				continue
			}

			if budget--; budget < 0 {
				res.Path = path
				return fmt.Errorf("%w: %v", ErrStepBudget, ref)
			}

			if st == nil {
				st = &SelectionState{
					Validator:  v.cfg.Self,
					Verifier:   ref.Node,
					InVouchers: vouchers.has,
					Topo:       v.cfg.Topo,
					RNG:        v.cfg.RNG,
				}
			}
			st.Current = cur.Node
			st.Candidates = cands
			jPrime := v.strategy.Next(st)
			mark(&tried, jPrime)

			// Lines 17–24: REQ_CHILD / RPY_CHILD exchange.
			res.MessagesSent++
			child, err := f.RequestChild(ctx, jPrime, cur.HeaderHash)
			if err != nil {
				res.Timeouts++
				v.reportFailure(jPrime)
				continue
			}
			res.MessagesReceived++
			if !v.replyValid(child, jPrime, cur) {
				res.Timeouts++
				v.reportFailure(jPrime)
				continue
			}
			v.reportSuccess(jPrime)
			res.HeadersFetched++
			hh := child.Hash()
			if dead[hh] {
				// This child's subtree is already known to dead-end;
				// probing it again would livelock.
				continue
			}

			// Lines 36–37: extend R_i and P_i, advance the verifying
			// block.
			path = append(path, PathStep{Node: jPrime, Header: child, HeaderHash: hh})
			vouchers.add(jPrime)
			advanced = true
		}
	}
}

// mark sets (*m)[k], making the map on its first write.
func mark[K comparable](m *map[K]bool, k K) {
	if *m == nil {
		*m = make(map[K]bool)
	}
	(*m)[k] = true
}

// runTPS is Algorithm 2: follow child links already present in H_i,
// stopping early once consensus is in hand and never stepping into a
// block whose subtree already dead-ended.
func (v *Validator) runTPS(path []PathStep, vouchers *voucherSet, dead map[digest.Digest]bool, res *Result) []PathStep {
	if v.cfg.Trust == nil {
		return path
	}
	for vouchers.len() < v.cfg.Gamma+1 {
		cur := path[len(path)-1]
		child, ok := v.cfg.Trust.ChildOf(cur.HeaderHash)
		if !ok {
			break
		}
		hh := child.Hash()
		if dead[hh] {
			break
		}
		res.TrustHits++
		path = append(path, PathStep{
			Node: child.Origin, Header: child, HeaderHash: hh, ViaTrust: true,
		})
		vouchers.add(child.Origin)
	}
	return path
}

// candidates computes N' for the current verifying node: its physical
// neighbors minus already-tried, rolled-back and blacklisted nodes.
// Avoided peers (ValidatorConfig.Avoid) are then filtered out only
// when at least one non-avoided candidate remains — suspicion routes
// around a peer but never makes consensus unreachable. The neighbor
// fetch and the filtering share buf's backing array; the result aliases
// it, so callers reuse it only after consuming the previous result.
func (v *Validator) candidates(cur identity.NodeID, tried, excluded map[identity.NodeID]bool, buf []identity.NodeID) []identity.NodeID {
	nbs := v.cfg.Topo.AppendNeighbors(buf[:0], cur)
	eligible := nbs[:0]
	nonAvoided := 0
	for _, nb := range nbs {
		if tried[nb] || excluded[nb] {
			continue
		}
		if v.cfg.Blacklist != nil && v.cfg.Blacklist.Banned(nb) {
			continue
		}
		if v.cfg.Avoid == nil || !v.cfg.Avoid(nb) {
			nonAvoided++
		}
		eligible = append(eligible, nb)
	}
	if nonAvoided == 0 || nonAvoided == len(eligible) {
		return eligible
	}
	out := eligible[:0]
	for _, nb := range eligible {
		if !v.cfg.Avoid(nb) {
			out = append(out, nb)
		}
	}
	return out
}

// replyValid applies line 21 — H(b^h_v) == GetDigest(b^h_j', v) — plus
// authenticity: the reply must be j”s own block and carry a valid PoW
// and signature.
func (v *Validator) replyValid(child *block.Header, jPrime identity.NodeID, cur PathStep) bool {
	if child.Origin != jPrime {
		return false
	}
	d, ok := child.DigestOf(cur.Node)
	if !ok || d != cur.HeaderHash {
		return false
	}
	return v.cfg.Params.ValidateHeaderCached(child, v.cfg.Ring, v.cfg.VerifyCache) == nil
}

// cacheVerifiedPath is line 39: store every header on the successful
// path into H_i. Step 0's header is embedded in the fetched target
// block, so storing it as is would keep the target's whole body
// reachable from H_i — a validator holding another node's data, which
// 2LDAG nodes never do. Unless the block is fully sealed (it sits in
// its owner's log, shared and alive regardless), H_i gets a detached
// copy of that header.
func (v *Validator) cacheVerifiedPath(path []PathStep, target *block.Block) {
	if v.cfg.Trust == nil {
		return
	}
	for i, step := range path {
		h := step.Header
		if i == 0 && !target.Sealed() && !v.cfg.Trust.Has(step.HeaderHash) {
			h = h.CloneSealed()
		}
		v.cfg.Trust.Add(h)
	}
}

func (v *Validator) reportFailure(id identity.NodeID) {
	if v.cfg.Blacklist != nil {
		v.cfg.Blacklist.ReportFailure(id)
	}
}

func (v *Validator) reportSuccess(id identity.NodeID) {
	if v.cfg.Blacklist != nil {
		v.cfg.Blacklist.ReportSuccess(id)
	}
}

// Source is the read-only store surface a Responder serves from.
// *ledger.Store implements it directly; ledger.View implements it over
// an immutable store prefix, which is how pipelined audits keep a
// responder's answers fenced at a slot boundary while the owner keeps
// appending (audit target eligibility and child selection are frozen
// at the fence).
type Source interface {
	Owner() identity.NodeID
	Get(seq uint32) (*block.Block, error)
	OldestContaining(d digest.Digest) (*block.Block, bool)
}

var (
	_ Source = (*ledger.Store)(nil)
	_ Source = ledger.View{}
)

// Responder implements Algorithm 4: serve the oldest local block whose
// Δ contains a requested digest, and serve full blocks to validators.
type Responder struct {
	store Source
}

// NewResponder wraps a node's block store (or a slot-fenced view of
// it).
func NewResponder(store Source) *Responder {
	return &Responder{store: store}
}

// ChildFor returns the header of the oldest local block containing
// target in its Δ (Eq. 10–11), or ErrNoChild.
func (r *Responder) ChildFor(target digest.Digest) (*block.Header, error) {
	b, ok := r.store.OldestContaining(target)
	if !ok {
		return nil, fmt.Errorf("%w: %s at %v", ErrNoChild, target, r.store.Owner())
	}
	return &b.Header, nil
}

// Block returns the full local block for ref, used to answer a
// validator's initial retrieval (Algorithm 3 line 2).
func (r *Responder) Block(ref block.Ref) (*block.Block, error) {
	if ref.Node != r.store.Owner() {
		return nil, fmt.Errorf("%w: %v not owned by %v", ledger.ErrNotFound, ref, r.store.Owner())
	}
	return r.store.Get(ref.Seq)
}
