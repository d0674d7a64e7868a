package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology"
)

// DefaultStepBudget bounds the number of candidate probes per audit;
// Prop. 6 bounds honest executions far below this.
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
	// Avoid, when non-nil, reports peers to route around — e.g. a
	// health tracker's suspects. The filter is advisory: about each
	// verifying block, avoided peers are asked only once every other
	// neighbour has been, so they stay reachable as a last resort
	// (which doubles as the recovery probe that re-admits them). It is
	// the validator's only record of a peer's standing across audits: a
	// reply is judged on its own (replyValid), and no answer, however
	// bad, bars a peer from later audits. Called from the audit loop —
	// must be cheap and safe for concurrent use.
	Avoid func(identity.NodeID) bool
	// Strategy selects the next responder; nil means WPS (Alg. 1).
	Strategy SelectionStrategy
	// VerifyCache remembers headers that already passed PoW + signature
	// checks, so each distinct header is cryptographically verified once
	// per cache rather than once per audit hop. Nil allocates a fresh
	// private cache; Engine.Validator passes the engine's, which is one
	// per process wherever the nodes of a process share one (Params,
	// Ring) pair (block.VerifyCache). A header that an engine on the
	// same cache sealed and published itself, under the key Ring holds
	// for it, skips only the signature check there: its version and
	// PoW are checked, its verdict cached, like any other's
	// (block.Params.ValidateHeaderCached). Must not be shared across
	// different Params or Ring values. The detached target copies
	// line 39 stores in H_i are interned through it, so a path header
	// may be the one object every device sharing the cache holds:
	// treat path headers as read-only.
	VerifyCache *block.VerifyCache
}

// Validator runs Proof-of-Path verifications (Algorithm 3).
//
// A Validator holds configuration only — every Verify builds its R_i,
// path and bookkeeping afresh, and the stores it reads (H_i, the
// verification cache, the topology) lock for themselves
// — so one Validator serves any number of concurrent Verify calls,
// which is how a node.Node and the simulator use the single one each
// builds per node. Selection ties are broken by a stateless rule
// (pick). The exceptions are what the caller plugs in: a Strategy or
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
	if cfg.VerifyCache == nil {
		cfg.VerifyCache = block.NewVerifyCache()
	}
	v := &Validator{cfg: cfg, strategy: cfg.Strategy}
	if v.strategy == nil {
		v.strategy = WPS{}
	}
	return v, nil
}

// voucherSet is R_i: the distinct node IDs vouching so far, in join
// order. It is a plain slice: |R_i| never
// exceeds γ+1 (construction stops there) and γ is a fraction of an
// IoT-scale |V|, so a linear scan beats hashing and the set costs one
// allocation per audit instead of a map.
type voucherSet struct {
	ids []identity.NodeID
}

func (s *voucherSet) add(id identity.NodeID) {
	if !s.has(id) {
		s.ids = append(s.ids, id)
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
//
// Algorithm 3's backtracking search is incomplete: it drops a node's
// voucher when it rolls back past it and excludes the node for the
// rest of the step (V'), so a subtree it abandons may be viable under
// another prefix. Verify instead searches once with union semantics
// (construct): every node that produced a valid child along the
// exploration keeps vouching. That is security-equivalent — each such
// node owns a block that verifiably descends from the target, so it
// vouches transitively (Sec. III-C) — and the search is a complete
// decision procedure for γ+1-voucher reachability within
// DefaultStepBudget. The paper's strict verdict stays on the Result: the
// final path alone holds γ+1 distinct nodes exactly when Consensus &&
// !UnionFallback.
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

	err = v.construct(ctx, ref, blk, f, res)
	res.UnionFallback = !holdsDistinct(res.Path, v.cfg.Gamma+1)
	return res, err
}

// asked is one REQ_CHILD of a Verify: peer was asked for a child of the
// block at path depth depth.
type asked struct {
	depth int32
	peer  identity.NodeID
}

// construct is Algorithm 3's path construction (lines 6–39) with union
// semantics: a rollback marks only the exhausted block dead; its
// owner keeps its voucher and stays a candidate, since it may own
// another child of an earlier block on the path. No question is asked
// twice: tried keeps, per block on the path, the peers already asked
// for its child, whatever they answered. A block leaves the path only
// by going dead, so its entries leave with it and are never needed.
func (v *Validator) construct(ctx context.Context, ref block.Ref, blk *block.Block, f Fetcher, res *Result) error {
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

	budget := DefaultStepBudget

	// Probe and rollback bookkeeping. All of it starts nil and is made by
	// its first write, so an audit that H_i satisfies outright — the
	// warm case — builds none of it.
	var (
		// dead records blocks whose subtrees were exhausted by a
		// rollback. The paper's pseudocode resets V' = V each outer
		// iteration (line 14), which livelocks between two dead-end
		// branches when consensus is unsatisfiable; memoizing exhausted
		// blocks guarantees termination (stores are immutable during
		// one verification).
		dead map[digest.Digest]bool
		// tried is the stack of questions asked about the blocks on the
		// path, in path order: the verifying block's sit on top.
		tried []asked
		// One SelectionState and one neighbor buffer serve every probe of
		// this search: strategies and candidate filtering run through
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
		// rolling back when a block's neighborhood is exhausted.
		for advanced := false; !advanced; {
			if err := ctx.Err(); err != nil {
				res.Path = path
				return fmt.Errorf("core: verification canceled: %w", err)
			}
			depth := int32(len(path) - 1)
			cur := path[depth]
			top := len(tried)
			for top > 0 && tried[top-1].depth == depth {
				top--
			}
			cands := v.candidates(cur.Node, tried[top:], nbBuf)
			nbBuf = cands[:0]
			if len(cands) == 0 {
				// Lines 26–31: roll back past the exhausted block.
				res.Rollbacks++
				if dead == nil {
					dead = make(map[digest.Digest]bool)
				}
				dead[cur.HeaderHash] = true
				path, tried = path[:depth], tried[:top]
				if len(path) == 0 {
					// Lines 32–34.
					res.Path = path
					return fmt.Errorf("%w: %v: every path exhausted", ErrNoConsensus, ref)
				}
				continue
			}

			if budget--; budget < 0 {
				res.Path = path
				return fmt.Errorf("%w: %v", ErrStepBudget, ref)
			}

			if st == nil { // the first probe
				st = &SelectionState{
					Validator:  v.cfg.Self,
					Verifier:   ref.Node,
					InVouchers: vouchers.has,
					Topo:       v.cfg.Topo,
				}
				tried = make([]asked, 0, 16)
			}
			st.Current = cur.Node
			st.CurrentHash = cur.HeaderHash
			st.Candidates = cands
			jPrime := v.strategy.Next(st)
			tried = append(tried, asked{depth: depth, peer: jPrime})

			// Lines 17–24: REQ_CHILD / RPY_CHILD exchange.
			res.MessagesSent++
			child, err := f.RequestChild(ctx, jPrime, cur.HeaderHash)
			if err != nil {
				res.Timeouts++
				continue
			}
			res.MessagesReceived++
			if !v.replyValid(child, jPrime, cur) {
				res.Timeouts++
				continue
			}
			res.HeadersFetched++
			hh := child.Hash()
			if dead[hh] {
				// This child's subtree is already known to dead-end.
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

// holdsDistinct reports whether path alone holds n distinct nodes, by
// a pairwise scan that stops at the n-th: paths are short.
func holdsDistinct(path []PathStep, n int) bool {
	for i, step := range path {
		if !slices.ContainsFunc(path[:i], func(p PathStep) bool { return p.Node == step.Node }) {
			if n--; n == 0 {
				return true
			}
		}
	}
	return false
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

// candidates computes N' for the current verifying block, whose
// origin is cur: cur's physical neighbors minus the peers already asked
// about this block (tried). Avoided peers (ValidatorConfig.Avoid) are
// then filtered out only when at least one non-avoided candidate
// remains — suspicion routes around a peer but never makes consensus
// unreachable. The neighbor fetch and the filtering share buf's backing
// array; the result aliases it, so callers reuse it only after
// consuming the previous result.
func (v *Validator) candidates(cur identity.NodeID, tried []asked, buf []identity.NodeID) []identity.NodeID {
	nbs := v.cfg.Topo.AppendNeighbors(buf[:0], cur)
	eligible := nbs[:0]
	nonAvoided := 0
	for _, nb := range nbs {
		if slices.ContainsFunc(tried, func(q asked) bool { return q.peer == nb }) {
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
// its owner's log, shared and alive regardless), H_i gets the
// interned detached copy of that header: the one already live in the
// verification cache, else a fresh copy registered there.
func (v *Validator) cacheVerifiedPath(path []PathStep, target *block.Block) {
	if v.cfg.Trust == nil {
		return
	}
	vc := v.cfg.VerifyCache
	for i, step := range path {
		h := step.Header
		if i == 0 && !target.Sealed() && !v.cfg.Trust.Has(step.HeaderHash) {
			if h = vc.Interned(step.HeaderHash); h == nil {
				h = vc.Intern(step.Header.CloneSealed())
			}
		}
		v.cfg.Trust.Add(h)
	}
}

// Responder implements Algorithm 4: serve the oldest local block whose
// Δ contains a requested digest, and serve full blocks to validators.
// A durable node's store reads the blocks its segment holds back from
// it: Child and Serve hand a reply the record's encoding as read
// (ledger.Served; its Header decodes one for a caller in the same
// process), and Block decodes it.
type Responder struct {
	store *ledger.Store
}

// NewResponder wraps a node's block store.
func NewResponder(store *ledger.Store) *Responder {
	return &Responder{store: store}
}

// Child answers REQ_CHILD(target) with the oldest local block whose Δ
// holds target (Eq. 10–11), as an RPY_CHILD carries it: the stored
// block, or the header's encoding read back from the segment
// (ledger.Served.Enc[:HeaderLen]). No block holding target is the
// store's bare ledger.ErrNotFound, and a record that cannot be read
// back is the store's error.
func (r *Responder) Child(target digest.Digest) (ledger.Served, error) {
	return r.store.OldestContaining(target)
}

// Block returns the full local block for ref, used to answer a
// validator's initial retrieval (Algorithm 3 line 2).
func (r *Responder) Block(ref block.Ref) (*block.Block, error) {
	if ref.Node != r.store.Owner() {
		return nil, fmt.Errorf("%w: %v not owned by %v", ledger.ErrNotFound, ref, r.store.Owner())
	}
	return r.store.Get(ref.Seq)
}

// Serve is Block as a BLOCK_RESP carries it: the stored block, or its
// encoding read back from the segment (ledger.Served.Enc).
func (r *Responder) Serve(ref block.Ref) (ledger.Served, error) {
	if ref.Node != r.store.Owner() {
		return ledger.Served{}, fmt.Errorf("%w: %v not owned by %v", ledger.ErrNotFound, ref, r.store.Owner())
	}
	return r.store.Serve(ref.Seq)
}
