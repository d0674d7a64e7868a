package core

import (
	"encoding/binary"

	"github.com/twoldag/twoldag/internal/digest"
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
	// CurrentHash is the header hash of the current verifying block;
	// with Validator it seeds the tie rule (pick).
	CurrentHash digest.Digest
	// Candidates is N' — the not-yet-tried neighbors of Current.
	Candidates []identity.NodeID
	// InVouchers reports membership in R_i.
	InVouchers func(identity.NodeID) bool
	// Topo is the shared physical topology.
	Topo *topology.Graph

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
	return pick(st, pool)
}

// RandomSelection ignores weights entirely — the ablation baseline for
// WPS. The zero value is ready to use.
type RandomSelection struct{}

// Next treats every candidate as tied: the tie rule's pick, which is
// spread across candidates like a uniform draw (see pick).
func (RandomSelection) Next(st *SelectionState) identity.NodeID {
	return pick(st, st.Candidates)
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
	return pick(st, best)
}

// pick is the one tie rule every driver applies (Algorithm 1 lets the
// validator take any member of a tie set): the member with the smallest
// mix of (validator, current header hash, member). The keys are
// splitmix64's stream from a seed of the first two, so distinct members
// never share one and the pool's order does not matter. The rule holds
// no state, so a validator may run any number of audits concurrently
// and the same audit takes the same path on every driver. Header hashes
// are SHA-256 outputs, so across blocks each member of a k-way tie
// comes first about 1/k of the time, not the lowest ID always.
func pick(st *SelectionState, pool []identity.NodeID) (best identity.NodeID) {
	seed := mix64(binary.LittleEndian.Uint64(st.CurrentHash[:8]) ^ uint64(st.Validator)*golden64)
	bestKey := ^uint64(0)
	for _, c := range pool {
		if k := mix64(seed + uint64(c)*golden64); k <= bestKey {
			best, bestKey = c, k
		}
	}
	return best
}

// golden64 is 2^64/φ, splitmix64's odd increment.
const golden64 = 0x9E3779B97F4A7C15

// mix64 is splitmix64's finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// Compile-time strategy conformance checks.
var (
	_ SelectionStrategy = WPS{}
	_ SelectionStrategy = RandomSelection{}
	_ SelectionStrategy = ShortestPathFirst{}
)
