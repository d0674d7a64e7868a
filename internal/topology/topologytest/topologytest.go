// Package topologytest builds the fixed topologies tests share: the
// paper's worked examples (Figs. 3, 4 and 6) and small lines, rings and
// complete graphs, all over nodes 0..n-1 with explicit edges.
package topologytest

import (
	"fmt"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// FromEdges builds a graph over nodes 0..n-1 with the given explicit
// edges and no positional adjacency.
func FromEdges(n int, edges [][2]identity.NodeID) (*topology.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d nodes", topology.ErrBadConfig, n)
	}
	g := topology.New(0)
	for i := 0; i < n; i++ {
		if err := g.AddNode(identity.NodeID(i), topology.Point{X: float64(i)}); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		if err := g.Link(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Line builds the path topology 0-1-2-...-(n-1).
func Line(n int) (*topology.Graph, error) {
	edges := make([][2]identity.NodeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]identity.NodeID{identity.NodeID(i), identity.NodeID(i + 1)})
	}
	return FromEdges(n, edges)
}

// Ring builds the cycle topology 0-1-...-(n-1)-0.
func Ring(n int) (*topology.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: ring needs at least 3 nodes", topology.ErrBadConfig)
	}
	edges := make([][2]identity.NodeID, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]identity.NodeID{identity.NodeID(i), identity.NodeID((i + 1) % n)})
	}
	return FromEdges(n, edges)
}

// Complete builds the fully connected topology on n nodes.
func Complete(n int) (*topology.Graph, error) {
	var edges [][2]identity.NodeID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]identity.NodeID{identity.NodeID(i), identity.NodeID(j)})
		}
	}
	return FromEdges(n, edges)
}

// PaperFig3 reproduces the four-node example of the paper's Fig. 3:
// N(A)={B}, N(B)={A,C,D}, N(C)={B,D}, N(D)={B,C} with A=0, B=1, C=2,
// D=3.
func PaperFig3() *topology.Graph {
	g, err := FromEdges(4, [][2]identity.NodeID{{0, 1}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		panic("topologytest: PaperFig3 fixture: " + err.Error()) // static fixture cannot fail
	}
	return g
}

// PaperFig4 reproduces the five-node PoP example of Fig. 4: B, C, D are
// mutual neighbors; A connects only to B; E connects only to D. IDs:
// A=0, B=1, C=2, D=3, E=4.
func PaperFig4() *topology.Graph {
	g, err := FromEdges(5, [][2]identity.NodeID{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}})
	if err != nil {
		panic("topologytest: PaperFig4 fixture: " + err.Error())
	}
	return g
}

// PaperFig6 reproduces the three-node micro-loop example of Fig. 6:
// a chain A-B-C (A=0, B=1, C=2).
func PaperFig6() *topology.Graph {
	g, err := FromEdges(3, [][2]identity.NodeID{{0, 1}, {1, 2}})
	if err != nil {
		panic("topologytest: PaperFig6 fixture: " + err.Error())
	}
	return g
}
