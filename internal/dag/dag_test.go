package dag

import (
	"errors"
	"fmt"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// buildNetwork generates a small 2LDAG network over the Fig. 3 topology
// and returns the stores keyed by node.
func buildNetwork(t *testing.T, slots int) map[identity.NodeID]*ledger.Store {
	t.Helper()
	g := topologytest.PaperFig3()
	params := block.DefaultParams()
	params.Difficulty = 2
	engines := make(map[identity.NodeID]*core.Engine)
	stores := make(map[identity.NodeID]*ledger.Store)
	for _, id := range g.Nodes() {
		eng, err := core.NewEngine(identity.Deterministic(id, 7), params, g)
		if err != nil {
			t.Fatal(err)
		}
		engines[id] = eng
		stores[id] = eng.Store()
	}
	for s := 0; s <= slots; s++ {
		for _, id := range g.Nodes() {
			body := []byte(fmt.Sprintf("%v@%d", id, s))
			b, err := engines[id].Seal(uint32(s), body)
			if err != nil {
				t.Fatal(err)
			}
			_, d, err := engines[id].Publish(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, nb := range g.Neighbors(id) {
				if err := engines[nb].OnDigestsFrom(id, []digest.Digest{d}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return stores
}

// mustFromStores is FromStores for in-memory stores, which read no
// header back and so cannot fail.
func mustFromStores(t *testing.T, stores map[identity.NodeID]*ledger.Store) *Graph {
	t.Helper()
	g, err := FromStores(stores)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mustHeaders is Store.Headers for an in-memory store.
func mustHeaders(t *testing.T, s *ledger.Store) []*block.Header {
	t.Helper()
	hs, err := s.Headers()
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

func TestFromStoresCountsAndProp1(t *testing.T) {
	slots := 4
	stores := buildNetwork(t, slots)
	g := mustFromStores(t, stores)
	// Prop. 1: every node generated slots+1 blocks (incl. genesis).
	want := 4 * (slots + 1)
	if g.Len() != want {
		t.Fatalf("|B| = %d, want %d", g.Len(), want)
	}
	per := g.BlocksPerNode()
	for id, n := range per {
		if n != slots+1 {
			t.Fatalf("node %v has %d blocks, want %d", id, n, slots+1)
		}
	}
}

func TestAcyclicity(t *testing.T) {
	g := mustFromStores(t, buildNetwork(t, 5))
	if !g.IsAcyclic() {
		t.Fatal("2LDAG logical layer must be acyclic")
	}
}

func TestChildrenParentsConsistency(t *testing.T) {
	stores := buildNetwork(t, 3)
	g := mustFromStores(t, stores)
	// For every indexed block, each parent must list it as a child.
	for _, s := range stores {
		for _, h := range mustHeaders(t, s) {
			hh := h.Hash()
			for _, p := range g.Parents(hh) {
				found := false
				for _, ch := range g.Children(p) {
					if ch == hh {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("parent %s does not list child %s", p, hh)
				}
			}
		}
	}
}

func TestReachableAlongChain(t *testing.T) {
	stores := buildNetwork(t, 4)
	g := mustFromStores(t, stores)
	s := stores[1] // node B
	first, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	last := s.Latest()
	if !g.Reachable(first.Header.Hash(), last.Header.Hash()) {
		t.Fatal("genesis must reach the latest block of the same node")
	}
	if g.Reachable(last.Header.Hash(), first.Header.Hash()) {
		t.Fatal("DAG edges must not run backwards")
	}
	if !g.Reachable(first.Header.Hash(), first.Header.Hash()) {
		t.Fatal("a block must reach itself")
	}
}

func TestReachableCrossNode(t *testing.T) {
	stores := buildNetwork(t, 4)
	g := mustFromStores(t, stores)
	// D0 must be reachable from... D0's digest is included in C's or
	// B's later blocks, which are in turn referenced onward: check that
	// an early block reaches some block of every other node
	// (connectivity of the logical layer on a connected radio graph).
	d0, err := stores[3].Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.VoucherReach(d0.Header.Hash()); got != 4 {
		t.Fatalf("voucher reach of D0 = %d, want 4", got)
	}
}

func TestDescendantCountMonotone(t *testing.T) {
	stores := buildNetwork(t, 4)
	g := mustFromStores(t, stores)
	s := stores[0]
	early, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := s.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.DescendantCount(early.Header.Hash()) <= g.DescendantCount(late.Header.Hash()) {
		t.Fatal("earlier blocks must have at least as many descendants")
	}
}

func TestHeaderLookupErrors(t *testing.T) {
	g := New()
	if _, err := g.Header(digest.Sum([]byte("missing"))); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("want ErrUnknownBlock, got %v", err)
	}
	if g.VoucherReach(digest.Sum([]byte("missing"))) != 0 {
		t.Fatal("voucher reach of unknown block must be 0")
	}
	if g.Reachable(digest.Sum([]byte("a")), digest.Sum([]byte("b"))) {
		t.Fatal("reachability between unknown blocks")
	}
}

func TestAddIdempotent(t *testing.T) {
	stores := buildNetwork(t, 1)
	g := mustFromStores(t, stores)
	n := g.Len()
	e := g.EdgeCount()
	h, err := stores[0].Get(0)
	if err != nil {
		t.Fatal(err)
	}
	g.Add(&h.Header)
	if g.Len() != n || g.EdgeCount() != e {
		t.Fatal("re-adding a header changed the graph")
	}
}

func TestEdgeCountMatchesDigestRefs(t *testing.T) {
	stores := buildNetwork(t, 2)
	g := mustFromStores(t, stores)
	// Every non-zero Δ entry whose parent is indexed is one edge.
	want := 0
	for _, s := range stores {
		for _, h := range mustHeaders(t, s) {
			for _, ref := range h.Digests {
				if ref.Digest.IsZero() {
					continue
				}
				if _, err := g.Header(ref.Digest); err == nil {
					want++
				}
			}
		}
	}
	if got := g.EdgeCount(); got != want {
		t.Fatalf("EdgeCount = %d, want %d", got, want)
	}
}
