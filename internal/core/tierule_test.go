package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// lowestIDWPS is WPS with the tie rule live validators used before the
// stateless one: the same tie set (Algorithm 1 lines 4-13), broken by
// the lowest node ID.
type lowestIDWPS struct{}

func (lowestIDWPS) Next(st *SelectionState) identity.NodeID {
	best := 2.0
	var z []identity.NodeID
	for _, cand := range st.Candidates {
		switch w := st.weight(cand); {
		case w < best:
			best, z = w, append(z[:0], cand)
		case w == best:
			z = append(z, cand)
		}
	}
	var fresh []identity.NodeID
	for _, cand := range z {
		if !st.InVouchers(cand) {
			fresh = append(fresh, cand)
		}
	}
	pool := z
	if len(fresh) > 0 && len(fresh) < len(z) {
		pool = fresh
	}
	return slices.Min(pool)
}

// voucherReach counts descendantOwners.
func voucherReach(l *lab, ref block.Ref, answers func(identity.NodeID) bool) int {
	return len(descendantOwners(l, ref, answers))
}

// descendantOwners returns the nodes that own the target or a block
// that descends from it along the edges PoP walks: from each block, the
// child each neighbour of its origin answers REQ_CHILD with. A
// neighbour for which answers is false (silent) answers nothing; nil
// means every neighbour answers.
func descendantOwners(l *lab, ref block.Ref, answers func(identity.NodeID) bool) map[identity.NodeID]bool {
	b, err := l.engines[ref.Node].Store().Get(ref.Seq)
	if err != nil {
		l.t.Fatal(err)
	}
	seen := map[digest.Digest]bool{b.Header.Hash(): true}
	owners := map[identity.NodeID]bool{ref.Node: true}
	for queue := []*block.Header{&b.Header}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		for _, j := range l.topo.Neighbors(cur.Origin) {
			if answers != nil && !answers(j) {
				continue
			}
			served, err := l.engines[j].Responder().Child(cur.Hash())
			if err != nil {
				continue
			}
			child, err := served.Header()
			if err != nil || seen[child.Hash()] {
				continue
			}
			seen[child.Hash()] = true
			owners[j] = true
			queue = append(queue, child)
		}
	}
	return owners
}

// TestUnionRetryRevisitsRolledBackNode is a hand-built instance of the
// fault TestVerdictIndependentOfTieRule found in the union retry that
// Verify ran before its search became union-first. Target P = n0#0; n2
// seals a child of P (n2#0), n3 a child of that (n3#0), n1 a child of
// both P and n2#0 (n1#0), and n2 then a dead-end child of n1#0 (n2#1).
// No single path holds four distinct nodes, so consensus at gamma=3
// needs vouchers from rolled-back branches, and UnionFallback must say
// so; the union of the tree holds n0-n3, so it is reachable. The leaf
// n4 ties n1 with n2 at P. Taking n1 first, the search walks P, n1#0,
// n2#1 and rolls back to P; a search that excluded rolled-back nodes
// (V') never asked n2 for its other child of P, n2#0, and so missed n3.
func TestUnionRetryRevisitsRolledBackNode(t *testing.T) {
	g, err := topologytest.FromEdges(5, [][2]identity.NodeID{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	l := newLab(t, g)
	for _, id := range []identity.NodeID{0, 2, 3, 1, 2} {
		l.runSlot(id)
	}
	target := block.Ref{Node: 0, Seq: 0}
	if got := voucherReach(l, target, nil); got != 4 {
		t.Fatalf("%d nodes own descendants of the target, want 4", got)
	}
	noTrust := func(c *ValidatorConfig) { c.Trust = nil }
	for name, opts := range map[string][]func(*ValidatorConfig){
		"default":        {noTrust},
		"lowest-ID rule": {noTrust, func(c *ValidatorConfig) { c.Strategy = lowestIDWPS{} }},
	} {
		res, err := l.validator(4, 3, opts...).Verify(context.Background(), target, l.fetcher)
		if err != nil || !res.Consensus || !res.UnionFallback {
			t.Fatalf("%s: consensus %v, union fallback %v, err %v; want consensus off any single path",
				name, res.Consensus, res.UnionFallback, err)
		}
	}
}

// randomConnected returns a seeded random connected graph on n nodes: a
// random spanning tree plus each other edge with probability 1/3.
func randomConnected(t *testing.T, rng *rand.Rand, n int) *topology.Graph {
	t.Helper()
	var edges [][2]identity.NodeID
	linked := make(map[[2]identity.NodeID]bool)
	link := func(a, b int) {
		e := [2]identity.NodeID{identity.NodeID(min(a, b)), identity.NodeID(max(a, b))}
		if !linked[e] {
			linked[e] = true
			edges = append(edges, e)
		}
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		link(perm[i], perm[rng.Intn(i)])
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(3) == 0 {
				link(a, b)
			}
		}
	}
	g, err := topologytest.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestVerdictIndependentOfTieRule: Algorithm 1 lets a validator take any
// member of a tie set, so the verdict must not depend on which. Over
// seeded random connected instances (n <= 8, gamma 1..n-2, two or three
// slots after genesis in which each node seals or not), the default
// validator and one breaking ties by the lowest ID must agree on
// Consensus for every target, and that verdict must be the one the
// union-first search's completeness promises (voucherReach). Both run
// cold (no H_i), so neither audit reads the other's path. How often they
// differ on UnionFallback — whether the final path alone holds γ+1
// nodes — is logged: that part of the result is path luck.
func TestVerdictIndependentOfTieRule(t *testing.T) {
	instances := 300
	if testing.Short() {
		instances = 60
	}
	rng := rand.New(rand.NewSource(50))
	ctx := context.Background()
	noTrust := func(c *ValidatorConfig) { c.Trust = nil }
	oldRule := func(c *ValidatorConfig) { c.Strategy = lowestIDWPS{} }
	var audits, reached, fallbackDiffers int
	for inst := 0; inst < instances; inst++ {
		n := 3 + rng.Intn(6)
		l := newLab(t, randomConnected(t, rng, n))
		l.genesisAll()
		var refs []block.Ref
		for _, id := range l.topo.Nodes() {
			refs = append(refs, block.Ref{Node: id})
		}
		for s := 2 + rng.Intn(2); s > 0; s-- {
			var order []identity.NodeID
			for _, i := range rng.Perm(n) {
				if rng.Intn(2) == 0 {
					order = append(order, identity.NodeID(i))
				}
			}
			l.runSlot(order...)
			for _, id := range order {
				refs = append(refs, l.engines[id].Store().Latest().Header.Ref())
			}
		}
		gamma := 1 + rng.Intn(n-2)
		self := identity.NodeID(rng.Intn(n))
		v := l.validator(self, gamma, noTrust)
		old := l.validator(self, gamma, noTrust, oldRule)
		for _, ref := range refs {
			if ref.Node == self {
				continue
			}
			got, gotErr := v.Verify(ctx, ref, l.fetcher)
			want, wantErr := old.Verify(ctx, ref, l.fetcher)
			for _, err := range []error{gotErr, wantErr} {
				if err != nil && !errors.Is(err, ErrNoConsensus) {
					t.Fatalf("instance %d (n=%d, gamma=%d): audit %v by %v: %v", inst, n, gamma, ref, self, err)
				}
			}
			if got.Consensus != want.Consensus {
				t.Errorf("instance %d (n=%d, gamma=%d): audit %v by %v: consensus %v, lowest-ID rule %v",
					inst, n, gamma, ref, self, got.Consensus, want.Consensus)
			}
			if reach := voucherReach(l, ref, nil); got.Consensus != (reach >= gamma+1) {
				t.Errorf("instance %d (n=%d, gamma=%d): audit %v by %v: consensus %v, but %d nodes own descendants",
					inst, n, gamma, ref, self, got.Consensus, reach)
			}
			audits++
			if got.Consensus {
				reached++
			}
			if got.UnionFallback != want.UnionFallback {
				fallbackDiffers++
			}
		}
	}
	if reached == 0 || reached == audits {
		t.Fatalf("%d of %d audits reached consensus: the sweep needs both verdicts", reached, audits)
	}
	t.Logf("%d instances, %d audits, %d reached consensus; UnionFallback differs between the tie rules on %d (%.1f%%)",
		instances, audits, reached, fallbackDiffers, 100*float64(fallbackDiffers)/float64(audits))
}
