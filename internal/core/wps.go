package core

import (
	"math/rand"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// SelectionState is the information available when choosing the next
// responder for the current verifying block b_v,t.
type SelectionState struct {
	// Validator is node i running PoP.
	Validator identity.NodeID
	// Verifier is the origin of the target block.
	Verifier identity.NodeID
	// Current is the origin v of the current verifying block.
	Current identity.NodeID
	// Candidates is N' — the not-yet-tried neighbors of Current.
	Candidates []identity.NodeID
	// InVouchers reports membership in R_i.
	InVouchers func(identity.NodeID) bool
	// Topo is the shared physical topology.
	Topo *topology.Graph
	// RNG breaks ties; nil means "lowest node ID", keeping selection
	// fully deterministic.
	RNG *rand.Rand

	// Strategy scratch, reused when the caller keeps one SelectionState
	// across probes (the validator does): neighbor fetches and tie sets
	// then cost zero allocations per step.
	nbScratch []identity.NodeID
	zScratch  []identity.NodeID
}

// weight is Eq. 7 through the state's neighbor scratch, so selection
// hot loops fetch neighbors without allocating.
func (st *SelectionState) weight(cand identity.NodeID) float64 {
	st.nbScratch = st.Topo.AppendNeighbors(st.nbScratch[:0], cand)
	return weightOf(st.nbScratch, st.InVouchers, cand)
}

// SelectionStrategy picks the next responder from st.Candidates (which
// is always non-empty).
type SelectionStrategy interface {
	Next(st *SelectionState) identity.NodeID
}

// weightOf computes Eq. 7 for candidate v̂ with neighbors nbs: the
// fraction of v̂'s closed neighborhood {N(v̂) ∪ {v̂}} already present in
// R_i. Lower weight means more potential fresh vouchers behind that
// candidate.
func weightOf(nbs []identity.NodeID, inVouchers func(identity.NodeID) bool, cand identity.NodeID) float64 {
	in := 0
	for _, nb := range nbs {
		if inVouchers(nb) {
			in++
		}
	}
	if inVouchers(cand) {
		in++
	}
	return float64(in) / float64(len(nbs)+1)
}

// WPS is Algorithm 1: Weighted Path Selection. The zero value is ready
// to use.
type WPS struct{}

// Next selects argmin-weight candidates (line 4), then applies the
// paper's tie rules: a single minimum wins (lines 5–7); if the tie set
// is disjoint from R_i or entirely inside it, any member may be chosen
// (lines 8–10); otherwise choose among members not in R_i (lines
// 11–13).
func (WPS) Next(st *SelectionState) identity.NodeID {
	z := st.zScratch[:0]
	best := 2.0 // weights are ≤ 1
	for _, cand := range st.Candidates {
		w := st.weight(cand)
		switch {
		case w < best:
			best = w
			z = z[:0]
			z = append(z, cand)
		case w == best:
			z = append(z, cand)
		}
	}
	st.zScratch = z[:0]
	if len(z) == 1 {
		return z[0]
	}
	fresh := z[:0:0]
	for _, cand := range z {
		if !st.InVouchers(cand) {
			fresh = append(fresh, cand)
		}
	}
	pool := z
	if len(fresh) > 0 && len(fresh) < len(z) {
		// Z ∩ R_i ≠ ∅ and Z ⊄ R_i: prefer the members outside R_i.
		pool = fresh
	}
	return pick(pool, st.RNG)
}

// RandomSelection ignores weights entirely — the ablation baseline for
// WPS. The zero value is ready to use.
type RandomSelection struct{}

// Next picks a uniformly random candidate (or the lowest ID without an
// RNG).
func (RandomSelection) Next(st *SelectionState) identity.NodeID {
	return pick(st.Candidates, st.RNG)
}

// ShortestPathFirst implements the paper's Sec. VII future-work idea:
// prefer the candidate physically closest to the validator so header
// transfers traverse fewer radio hops, breaking ties by WPS weight.
// The zero value is ready to use.
type ShortestPathFirst struct{}

// Next selects the candidate minimizing (hops-to-validator, Eq. 7
// weight).
func (ShortestPathFirst) Next(st *SelectionState) identity.NodeID {
	dist, err := st.Topo.BFSDistances(st.Validator)
	if err != nil {
		return WPS{}.Next(st)
	}
	bestHops := int(^uint(0) >> 1)
	bestWeight := 2.0
	var best []identity.NodeID
	for _, cand := range st.Candidates {
		h, ok := dist[cand]
		if !ok {
			h = bestHops // unreachable sorts last
		}
		w := st.weight(cand)
		switch {
		case h < bestHops || (h == bestHops && w < bestWeight):
			bestHops, bestWeight = h, w
			best = best[:0]
			best = append(best, cand)
		case h == bestHops && w == bestWeight:
			best = append(best, cand)
		}
	}
	return pick(best, st.RNG)
}

// pick chooses deterministically (lowest ID) without an RNG, uniformly
// with one.
func pick(pool []identity.NodeID, rng *rand.Rand) identity.NodeID {
	if len(pool) == 1 {
		return pool[0]
	}
	if rng != nil {
		return pool[rng.Intn(len(pool))]
	}
	best := pool[0]
	for _, c := range pool[1:] {
		if c < best {
			best = c
		}
	}
	return best
}

// Compile-time strategy conformance checks.
var (
	_ SelectionStrategy = WPS{}
	_ SelectionStrategy = RandomSelection{}
	_ SelectionStrategy = ShortestPathFirst{}
)
