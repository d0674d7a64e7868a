// Package topology models the physical layer of 2LDAG (paper Sec. III-A):
// a static IoT radio network G(V, E) with undirected links. Every node is
// assumed to know the full topology (the paper's standing assumption),
// which the Proof-of-Path validator relies on when steering path
// construction.
//
// The generator reproduces the deployment of Sec. VI: nodes are placed
// one by one, each uniformly at random within communication range of an
// already-placed node, which guarantees a connected network by
// construction. Deterministic helper topologies (line, ring, complete,
// explicit edge lists) support unit tests that replay the paper's worked
// examples (Figs. 3–6).
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/twoldag/twoldag/internal/identity"
)

// Sentinel errors.
var (
	ErrUnknownNode   = errors.New("topology: unknown node")
	ErrDuplicateNode = errors.New("topology: node already present")
	ErrBadConfig     = errors.New("topology: invalid configuration")
	ErrPlacement     = errors.New("topology: placement failed")
)

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Graph is a concurrency-safe undirected radio graph. Build one with
// Generate or one of the deterministic constructors. The zero value is
// an empty graph with zero communication range; use New for an explicit
// range.
type Graph struct {
	mu     sync.RWMutex
	rangeM float64 // communication range in meters; 0 = adjacency is manual
	pos    map[identity.NodeID]Point
	adj    map[identity.NodeID][]identity.NodeID // sorted neighbor lists
}

// New returns an empty graph whose adjacency is derived from positions
// and the given communication range.
func New(commRange float64) *Graph {
	return &Graph{rangeM: commRange}
}

// Config drives the Sec. VI random deployment.
type Config struct {
	Nodes int
	// Width and Height of the deployment area, meters.
	Width, Height float64
	// Range is the radio communication range, meters.
	Range float64
	Seed  int64
	// MaxAttempts bounds per-node placement retries (0 = 1000).
	MaxAttempts int
}

// DefaultConfig is the paper's Sec. VI deployment: 50 nodes, 50 m range,
// read as a 1000 m × 1000 m area. The paper's "1000 square meters",
// taken literally, is a 31.6 m square inside one 50 m radio range:
// every node would neighbour every other, and no audit would take a
// hop.
func DefaultConfig(seed int64) Config {
	return Config{Nodes: 50, Width: 1000, Height: 1000, Range: 50, Seed: seed}
}

func (c Config) validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("%w: %d nodes", ErrBadConfig, c.Nodes)
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("%w: area %.1f x %.1f", ErrBadConfig, c.Width, c.Height)
	case c.Range <= 0:
		return fmt.Errorf("%w: range %.1f", ErrBadConfig, c.Range)
	}
	return nil
}

// Deployment generates the standard n-node deployment graph for a
// seed: the paper's evaluation density (1000 m side per 50 nodes,
// range side/5) scaled down so small clusters stay multi-hop but
// connected, with floors of 200 m and 60 m. Every process of a
// cross-host cluster derives its shared world this way — same
// (n, seed), same graph, no topology exchange needed.
func Deployment(n int, seed int64) (*Graph, error) {
	side := math.Max(200, 1000*float64(n)/50)
	return Generate(Config{
		Nodes: n, Width: side, Height: side,
		Range: math.Max(60, side/5), Seed: seed,
	})
}

// Generate places cfg.Nodes nodes with IDs 0..Nodes-1 using the paper's
// sequential connected placement: the first node sits at the center of
// the area, and every subsequent node is dropped uniformly at random
// within communication range of a uniformly chosen existing node
// (clamped to the area), so the result is connected by construction.
func Generate(cfg Config) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := New(cfg.Range)
	if err := g.AddNode(0, Point{X: cfg.Width / 2, Y: cfg.Height / 2}); err != nil {
		return nil, err
	}
	placed := []identity.NodeID{0}
	for i := 1; i < cfg.Nodes; i++ {
		id := identity.NodeID(i)
		ok := false
		for try := 0; try < attempts; try++ {
			anchor := placed[rng.Intn(len(placed))]
			ap, _ := g.Position(anchor)
			// Uniform point in the disc of radius Range around anchor.
			r := cfg.Range * math.Sqrt(rng.Float64())
			theta := rng.Float64() * 2 * math.Pi
			p := Point{X: ap.X + r*math.Cos(theta), Y: ap.Y + r*math.Sin(theta)}
			if p.X < 0 || p.X > cfg.Width || p.Y < 0 || p.Y > cfg.Height {
				continue
			}
			if err := g.AddNode(id, p); err != nil {
				return nil, err
			}
			ok = true
			break
		}
		if !ok {
			return nil, fmt.Errorf("%w: node %v after %d attempts", ErrPlacement, id, attempts)
		}
		placed = append(placed, id)
	}
	return g, nil
}

// AddNode inserts a node at position p, linking it to every existing
// node within communication range (dynamic join; paper Sec. VII).
func (g *Graph) AddNode(id identity.NodeID, p Point) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pos == nil {
		g.pos = make(map[identity.NodeID]Point)
		g.adj = make(map[identity.NodeID][]identity.NodeID)
	}
	if _, ok := g.pos[id]; ok {
		return fmt.Errorf("%w: %v", ErrDuplicateNode, id)
	}
	g.pos[id] = p
	g.adj[id] = nil
	if g.rangeM > 0 {
		for other, op := range g.pos {
			if other == id {
				continue
			}
			if p.Distance(op) <= g.rangeM {
				g.linkLocked(id, other)
			}
		}
	}
	return nil
}

// RemoveNode deletes a node and all its links (dynamic leave).
func (g *Graph) RemoveNode(id identity.NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.pos[id]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	for _, nb := range g.adj[id] {
		g.adj[nb] = removeSorted(g.adj[nb], id)
	}
	delete(g.adj, id)
	delete(g.pos, id)
	return nil
}

// Link manually connects two nodes (used by deterministic topologies).
func (g *Graph) Link(a, b identity.NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.pos[a]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, a)
	}
	if _, ok := g.pos[b]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, b)
	}
	if a == b {
		return fmt.Errorf("%w: self link %v", ErrBadConfig, a)
	}
	g.linkLocked(a, b)
	return nil
}

func (g *Graph) linkLocked(a, b identity.NodeID) {
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
}

func insertSorted(s []identity.NodeID, id identity.NodeID) []identity.NodeID {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= id })
	if i < len(s) && s[i] == id {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

func removeSorted(s []identity.NodeID, id identity.NodeID) []identity.NodeID {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= id })
	if i < len(s) && s[i] == id {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// CommRange returns the radio communication range used for automatic
// adjacency (0 for manually linked graphs).
func (g *Graph) CommRange() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.rangeM
}

// Len returns the number of nodes |V|.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.pos)
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []identity.NodeID {
	g.mu.RLock()
	ids := make([]identity.NodeID, 0, len(g.pos))
	for id := range g.pos {
		ids = append(ids, id)
	}
	g.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Has reports whether id is part of the graph.
func (g *Graph) Has(id identity.NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.pos[id]
	return ok
}

// Position returns a node's coordinates.
func (g *Graph) Position(id identity.NodeID) (Point, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	p, ok := g.pos[id]
	return p, ok
}

// Degree returns |N(i)|.
func (g *Graph) Degree(id identity.NodeID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj[id])
}

// Neighbors returns a copy of N(i) in ascending order.
func (g *Graph) Neighbors(id identity.NodeID) []identity.NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]identity.NodeID(nil), g.adj[id]...)
}

// AppendNeighbors appends N(i) to dst and returns it, avoiding an
// allocation on hot paths.
func (g *Graph) AppendNeighbors(dst []identity.NodeID, id identity.NodeID) []identity.NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append(dst, g.adj[id]...)
}

// IsNeighbor reports whether edge (a, b) exists.
func (g *Graph) IsNeighbor(a, b identity.NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := g.adj[a]
	i := sort.Search(len(s), func(k int) bool { return s[k] >= b })
	return i < len(s) && s[i] == b
}

// EdgeCount returns |E|.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// BFSDistances returns hop counts from src to every reachable node.
func (g *Graph) BFSDistances(src identity.NodeID) (map[identity.NodeID]int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.pos[src]; !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownNode, src)
	}
	dist := map[identity.NodeID]int{src: 0}
	queue := []identity.NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist, nil
}

// Connected reports whether the graph is a single component.
func (g *Graph) Connected() bool {
	ids := g.Nodes()
	if len(ids) <= 1 {
		return true
	}
	dist, err := g.BFSDistances(ids[0])
	if err != nil {
		return false
	}
	return len(dist) == len(ids)
}

// Stats summarizes the graph for experiment logs.
type Stats struct {
	Nodes     int
	Edges     int
	MinDegree int
	MaxDegree int
	AvgDegree float64
	Diameter  int
	Connected bool
}

// Summary computes graph statistics. Diameter is -1 for disconnected
// graphs.
func (g *Graph) Summary() Stats {
	ids := g.Nodes()
	s := Stats{Nodes: len(ids), Edges: g.EdgeCount(), MinDegree: math.MaxInt, Connected: true}
	if len(ids) == 0 {
		s.MinDegree = 0
		return s
	}
	totalDeg := 0
	for _, id := range ids {
		d := g.Degree(id)
		totalDeg += d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.AvgDegree = float64(totalDeg) / float64(len(ids))
	for _, id := range ids {
		dist, err := g.BFSDistances(id)
		if err != nil || len(dist) != len(ids) {
			s.Connected = false
			s.Diameter = -1
			return s
		}
		for _, d := range dist {
			if d > s.Diameter {
				s.Diameter = d
			}
		}
	}
	return s
}
