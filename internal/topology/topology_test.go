package topology

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/twoldag/twoldag/internal/identity"
)

func TestGenerateDefaultIsConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, err := Generate(DefaultConfig(seed))
		if err != nil {
			t.Fatalf("Generate(seed=%d): %v", seed, err)
		}
		if g.Len() != 50 {
			t.Fatalf("want 50 nodes, got %d", g.Len())
		}
		if !g.Connected() {
			t.Fatalf("seed %d produced a disconnected graph", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Nodes() {
		pa, _ := a.Position(id)
		pb, _ := b.Position(id)
		if pa != pb {
			t.Fatalf("positions differ for %v with same seed", id)
		}
	}
	c, err := Generate(DefaultConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, id := range a.Nodes() {
		pa, _ := a.Position(id)
		pc, _ := c.Position(id)
		if pa != pc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical layouts")
	}
}

func TestGenerateAdjacencyRespectsRange(t *testing.T) {
	cfg := DefaultConfig(7)
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.Nodes()
	for _, a := range ids {
		pa, _ := g.Position(a)
		for _, b := range ids {
			if a >= b {
				continue
			}
			pb, _ := g.Position(b)
			inRange := pa.Distance(pb) <= cfg.Range
			if g.IsNeighbor(a, b) != inRange {
				t.Fatalf("adjacency(%v,%v)=%v but distance %.2f (range %.1f)",
					a, b, g.IsNeighbor(a, b), pa.Distance(pb), cfg.Range)
			}
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, Width: 10, Height: 10, Range: 5},
		{Nodes: 5, Width: 0, Height: 10, Range: 5},
		{Nodes: 5, Width: 10, Height: -1, Range: 5},
		{Nodes: 5, Width: 10, Height: 10, Range: 0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

func TestAddNodeWithinRangeAutolinks(t *testing.T) {
	g := New(10)
	if err := g.AddNode(0, Point{}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(1, Point{X: 5}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(2, Point{X: 50}); err != nil {
		t.Fatal(err)
	}
	if !g.IsNeighbor(0, 1) || g.IsNeighbor(0, 2) {
		t.Fatal("range-based autolinking wrong")
	}
}

func TestDuplicateAndSelfLinkErrors(t *testing.T) {
	g := New(0)
	if err := g.AddNode(0, Point{}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(0, Point{}); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := g.Link(0, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("self link: %v", err)
	}
	if err := g.Link(0, 9); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("link unknown: %v", err)
	}
}

func TestQuickGeneratedAlwaysConnected(t *testing.T) {
	f := func(seedRaw uint32, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		cfg := Config{Nodes: n, Width: 500, Height: 500, Range: 60, Seed: int64(seedRaw)}
		g, err := Generate(cfg)
		if err != nil {
			// Placement can legitimately fail in tiny pathological
			// areas; config here is generous, so treat as failure.
			return false
		}
		return g.Connected() && g.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBFSDistancesAreShortest: on a generated graph, BFS distances
// from any source are 0 at the source, differ by at most one across
// every link, and give every other node a neighbor one hop nearer, so
// each distance is the length of a shortest walk.
func TestQuickBFSDistancesAreShortest(t *testing.T) {
	g, err := Generate(Config{Nodes: 30, Width: 400, Height: 400, Range: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(srcRaw uint8) bool {
		src := identity.NodeID(srcRaw % 30)
		dist, err := g.BFSDistances(src)
		if err != nil || len(dist) != g.Len() || dist[src] != 0 {
			return false
		}
		for _, id := range g.Nodes() {
			nearer := id == src
			for _, nb := range g.Neighbors(id) {
				switch dist[nb] - dist[id] {
				case -1:
					nearer = true
				case 0, 1:
				default:
					return false
				}
			}
			if !nearer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
