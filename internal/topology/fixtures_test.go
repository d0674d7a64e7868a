package topology_test

import (
	"errors"
	"testing"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

func TestPaperFig3Neighbors(t *testing.T) {
	g := topologytest.PaperFig3()
	want := map[identity.NodeID][]identity.NodeID{
		0: {1},       // N(A) = {B}
		1: {0, 2, 3}, // N(B) = {A, C, D}
		2: {1, 3},    // N(C) = {B, D}
		3: {1, 2},    // N(D) = {B, C}
	}
	for id, nbs := range want {
		got := g.Neighbors(id)
		if len(got) != len(nbs) {
			t.Fatalf("N(%v) = %v, want %v", id, got, nbs)
		}
		for i := range nbs {
			if got[i] != nbs[i] {
				t.Fatalf("N(%v) = %v, want %v", id, got, nbs)
			}
		}
	}
}

func TestPaperFig4Structure(t *testing.T) {
	g := topologytest.PaperFig4()
	if g.Degree(0) != 1 || g.Degree(4) != 1 {
		t.Fatal("A and E must be leaves")
	}
	if !g.IsNeighbor(1, 2) || !g.IsNeighbor(1, 3) || !g.IsNeighbor(2, 3) {
		t.Fatal("B, C, D must form a triangle")
	}
	if !g.Connected() {
		t.Fatal("Fig. 4 graph must be connected")
	}
}

func TestTwoComponentsAreDisconnected(t *testing.T) {
	g, err := topologytest.FromEdges(4, [][2]identity.NodeID{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("graph should report disconnected")
	}
}

func TestBFSDistancesOmitUnreachable(t *testing.T) {
	g, err := topologytest.FromEdges(5, [][2]identity.NodeID{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.BFSDistances(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 3 || dist[0] != 0 || dist[1] != 1 || dist[2] != 2 {
		t.Fatalf("distances from 0 = %v, want {0:0 1:1 2:2}", dist)
	}
	for _, id := range []identity.NodeID{3, 4} {
		if d, ok := dist[id]; ok {
			t.Fatalf("node %v of the other component has distance %d", id, d)
		}
	}
	if _, err := g.BFSDistances(9); !errors.Is(err, topology.ErrUnknownNode) {
		t.Fatalf("BFSDistances from an unknown node: want ErrUnknownNode, got %v", err)
	}
}

func TestBFSDistancesRing(t *testing.T) {
	g, err := topologytest.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.BFSDistances(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[4] != 4 || dist[7] != 1 || dist[1] != 1 {
		t.Fatalf("ring distances wrong: %v", dist)
	}
}

func TestAddRemoveNodeDynamic(t *testing.T) {
	g, err := topologytest.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	// Join: new node 3 linked manually to 2.
	if err := g.AddNode(3, topology.Point{X: 99}); err != nil {
		t.Fatal(err)
	}
	if err := g.Link(2, 3); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("graph should be connected after join")
	}
	// Leave: removing 1 splits the line.
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("removing the bridge should disconnect")
	}
	if g.Has(1) || g.Degree(0) != 0 {
		t.Fatal("stale adjacency after removal")
	}
	if err := g.RemoveNode(1); !errors.Is(err, topology.ErrUnknownNode) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestSummary(t *testing.T) {
	g, err := topologytest.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summary()
	if s.Nodes != 5 || s.Edges != 5 || s.MinDegree != 2 || s.MaxDegree != 2 {
		t.Fatalf("ring summary wrong: %+v", s)
	}
	if s.Diameter != 2 || !s.Connected {
		t.Fatalf("ring diameter = %d, want 2", s.Diameter)
	}
	d, _ := topologytest.FromEdges(4, [][2]identity.NodeID{{0, 1}})
	ds := d.Summary()
	if ds.Connected || ds.Diameter != -1 {
		t.Fatalf("disconnected summary wrong: %+v", ds)
	}
}

func TestNeighborsReturnsCopy(t *testing.T) {
	g := topologytest.PaperFig3()
	nbs := g.Neighbors(1)
	nbs[0] = 99
	if g.Neighbors(1)[0] == 99 {
		t.Fatal("Neighbors leaked internal slice")
	}
}

func TestCompleteGraph(t *testing.T) {
	g, err := topologytest.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 15 {
		t.Fatalf("K6 edges = %d, want 15", g.EdgeCount())
	}
	if g.Summary().Diameter != 1 {
		t.Fatal("K6 diameter must be 1")
	}
}
