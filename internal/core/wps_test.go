package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// inSet builds an R_i membership predicate.
func inSet(ids ...identity.NodeID) func(identity.NodeID) bool {
	m := make(map[identity.NodeID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return func(id identity.NodeID) bool { return m[id] }
}

// TestWeightPaperFig4FirstStep replays the worked example of Sec. IV-A:
// verifying B1 with R = {B}, the weights of B's neighbors must be
// w_A = 1/2, w_C = 1/3, w_D = 1/4.
func TestWeightPaperFig4FirstStep(t *testing.T) {
	g := topologytest.PaperFig4() // A=0, B=1, C=2, D=3, E=4
	r := inSet(1)
	cases := []struct {
		node identity.NodeID
		want float64
	}{
		{0, 0.5},
		{2, 1.0 / 3.0},
		{3, 0.25},
	}
	for _, c := range cases {
		if got := weightOf(g.Neighbors(c.node), r, c.node); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("weightOf(%v) = %v, want %v", c.node, got, c.want)
		}
	}
	st := &SelectionState{Current: 1, Candidates: []identity.NodeID{0, 2, 3}, InVouchers: r, Topo: g}
	if got := (WPS{}).Next(st); got != 3 {
		t.Fatalf("WPS first step selected %v, want D (3)", got)
	}
}

// TestWeightPaperFig4SecondStep continues the example: after adding D,
// R = {B, D}; among D's neighbors, w_B = 1/2, w_C = 2/3, w_E = 1/2, and
// E must win the tie because B is already in R_i.
func TestWeightPaperFig4SecondStep(t *testing.T) {
	g := topologytest.PaperFig4()
	r := inSet(1, 3)
	if got := weightOf(g.Neighbors(1), r, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("w_B = %v, want 0.5", got)
	}
	if got := weightOf(g.Neighbors(2), r, 2); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("w_C = %v, want 2/3", got)
	}
	if got := weightOf(g.Neighbors(4), r, 4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("w_E = %v, want 0.5", got)
	}
	st := &SelectionState{Current: 3, Candidates: []identity.NodeID{1, 2, 4}, InVouchers: r, Topo: g}
	if got := (WPS{}).Next(st); got != 4 {
		t.Fatalf("WPS second step selected %v, want E (4)", got)
	}
}

func TestWPSSingleCandidate(t *testing.T) {
	g := topologytest.PaperFig4()
	st := &SelectionState{Candidates: []identity.NodeID{2}, InVouchers: inSet(), Topo: g}
	if got := (WPS{}).Next(st); got != 2 {
		t.Fatalf("single candidate not returned: %v", got)
	}
}

// hashes returns n header hashes drawn from a seeded stream.
func hashes(seed int64, n int) []digest.Digest {
	rng := rand.New(rand.NewSource(seed))
	out := make([]digest.Digest, n)
	for i := range out {
		rng.Read(out[i][:])
	}
	return out
}

func TestWPSTieAllOutsideR(t *testing.T) {
	// Ring: every node has degree 2; with empty R all weights are 0, so
	// any candidate is legal (lines 8-10). The tie rule must stay in the
	// tie set and, across current blocks, take either member.
	g, err := topologytest.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	st := &SelectionState{Validator: 2, Candidates: []identity.NodeID{5, 1}, InVouchers: inSet(), Topo: g}
	seen := make(map[identity.NodeID]bool)
	for _, h := range hashes(3, 32) {
		st.CurrentHash = h
		got := (WPS{}).Next(st)
		if got != 1 && got != 5 {
			t.Fatalf("tie pick %v outside tie set", got)
		}
		seen[got] = true
	}
	if len(seen) != 2 {
		t.Fatalf("32 current blocks picked only %v from a two-way tie", seen)
	}
}

func TestWPSTiePrefersNonVoucher(t *testing.T) {
	// Line topology 0-1-2-3-4-5. Candidates 1 and 4 for current node
	// with R = {1, 2}: w_1 = |{0,1,2} ∩ R|/3 = 2/3 ... craft instead a
	// symmetric case: complete graph K4, R = {0}. All candidates have
	// closed neighborhood = V, weight 1/4... all equal; candidates
	// {0-excluded}; include one candidate in R to check preference.
	g, err := topologytest.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	r := inSet(1)
	st := &SelectionState{Candidates: []identity.NodeID{1, 2, 3}, InVouchers: r, Topo: g}
	// Weights all equal (closed neighborhoods identical in K4), so the
	// tie-break must avoid node 1 ∈ R.
	got := (WPS{}).Next(st)
	if got == 1 {
		t.Fatal("WPS tie-break picked a node already in R_i")
	}
}

func TestRandomSelectionStaysInCandidates(t *testing.T) {
	g := topologytest.PaperFig4()
	st := &SelectionState{
		Candidates: []identity.NodeID{0, 2, 3},
		InVouchers: inSet(),
		Topo:       g,
	}
	seen := make(map[identity.NodeID]bool)
	for _, h := range hashes(9, 50) {
		st.CurrentHash = h
		got := (RandomSelection{}).Next(st)
		if got != 0 && got != 2 && got != 3 {
			t.Fatalf("pick %v outside candidates", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatal("RandomSelection never varied across 50 current blocks")
	}
}

// TestTieRuleSpreadsEvenly: over many current blocks, each member of a
// k-way tie comes first about 1/k of the time, so tie-broken probes do
// not pile onto the lowest IDs. With 12,000 hashes the tolerance of
// 0.02 is more than 4 standard deviations for every k here.
func TestTieRuleSpreadsEvenly(t *testing.T) {
	const n, tol = 12000, 0.02
	hs := hashes(17, n)
	for k := 2; k <= 6; k++ {
		pool := make([]identity.NodeID, k)
		for i := range pool {
			pool[i] = identity.NodeID(3 + i) // adjacent IDs: the weakest input
		}
		st := &SelectionState{Validator: 7}
		first := make(map[identity.NodeID]int, k)
		for _, h := range hs {
			st.CurrentHash = h
			first[pick(st, pool)]++
		}
		for _, c := range pool {
			if f := float64(first[c]) / n; math.Abs(f-1/float64(k)) > tol {
				t.Errorf("k=%d: candidate %v first in %.4f of ties, want %.4f ± %.2f", k, c, f, 1/float64(k), tol)
			}
		}
	}
}

// TestTieRuleIsAFunctionOfTheState: the same (validator, current hash,
// tie set) gives the same pick, whatever the call count, the order of
// the set or the SelectionState value that carries it.
func TestTieRuleIsAFunctionOfTheState(t *testing.T) {
	pool := []identity.NodeID{9, 2, 14, 5, 11}
	rev := slices.Clone(pool)
	slices.Reverse(rev)
	for _, h := range hashes(23, 200) {
		st := &SelectionState{Validator: 4, CurrentHash: h}
		want := pick(st, pool)
		if got := pick(st, pool); got != want {
			t.Fatalf("hash %v: second call picked %v, first %v", h.Short(), got, want)
		}
		if got := pick(&SelectionState{Validator: 4, CurrentHash: h}, rev); got != want {
			t.Fatalf("hash %v: reversed set picked %v, want %v", h.Short(), got, want)
		}
	}
}

func TestShortestPathFirstPrefersCloserNode(t *testing.T) {
	// Line 0-1-2-3-4; validator is node 0. Candidates 1 and 3: node 1
	// is closer to the validator and must win regardless of weights.
	g, err := topologytest.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	st := &SelectionState{
		Validator:  0,
		Current:    2,
		Candidates: []identity.NodeID{3, 1},
		InVouchers: inSet(),
		Topo:       g,
	}
	if got := (ShortestPathFirst{}).Next(st); got != 1 {
		t.Fatalf("ShortestPathFirst = %v, want 1", got)
	}
}

func TestWeightCountsSelfInclusion(t *testing.T) {
	// Candidate already in R contributes itself to the numerator.
	g := topologytest.PaperFig4()
	w := weightOf(g.Neighbors(0), inSet(0), 0) // A in R; N(A)={B}; |{A}|/2
	if math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("self-inclusion weight = %v, want 0.5", w)
	}
}
