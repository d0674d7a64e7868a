// Package dag materializes the logical layer of 2LDAG (paper Sec.
// III-C): the global graph Ḡ(B, L) whose vertices are all data blocks
// and whose directed edges connect a block to every block whose header
// digest it contains. Individual nodes never hold this graph — it is an
// analysis artifact used by tests, the simulator and the experiment
// harness to check structural invariants (acyclicity, reachability,
// Prop. 1 block counts) and to inspect micro-loops (Prop. 5).
package dag

import (
	"errors"
	"fmt"
	"sort"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
)

// ErrUnknownBlock reports a lookup for an unindexed block.
var ErrUnknownBlock = errors.New("dag: unknown block")

// Graph is the logical DAG. Not safe for concurrent mutation; build it
// once from a snapshot of node stores.
type Graph struct {
	headers map[digest.Digest]*block.Header
	// children[d] lists header hashes whose Δ contains d.
	children map[digest.Digest][]digest.Digest
	// parents[h] lists the non-zero digests in h's Δ that resolve to
	// indexed headers.
	parents map[digest.Digest][]digest.Digest
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		headers:  make(map[digest.Digest]*block.Header),
		children: make(map[digest.Digest][]digest.Digest),
		parents:  make(map[digest.Digest][]digest.Digest),
	}
}

// FromStores builds the logical DAG over every block in the given
// stores. A durable store reads the headers its segment holds back
// from it, and a read that fails fails the build.
func FromStores(stores map[identity.NodeID]*ledger.Store) (*Graph, error) {
	g := New()
	ids := make([]identity.NodeID, 0, len(stores))
	for id := range stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		hs, err := stores[id].Headers()
		if err != nil {
			return nil, err
		}
		for _, h := range hs {
			g.Add(h)
		}
	}
	return g, nil
}

// Add indexes a header.
func (g *Graph) Add(h *block.Header) {
	hh := h.Hash()
	if _, ok := g.headers[hh]; ok {
		return
	}
	g.headers[hh] = h.Clone()
	for _, ref := range h.Digests {
		if ref.Digest.IsZero() {
			continue
		}
		g.children[ref.Digest] = append(g.children[ref.Digest], hh)
		g.parents[hh] = append(g.parents[hh], ref.Digest)
	}
}

// Len returns the number of indexed blocks |B|.
func (g *Graph) Len() int { return len(g.headers) }

// Header returns the indexed header with the given hash.
func (g *Graph) Header(h digest.Digest) (*block.Header, error) {
	hdr, ok := g.headers[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, h)
	}
	return hdr.Clone(), nil
}

// Children returns the hashes of blocks whose Δ contains h.
func (g *Graph) Children(h digest.Digest) []digest.Digest {
	return append([]digest.Digest(nil), g.children[h]...)
}

// Parents returns the digests h's Δ points at (restricted to indexed
// blocks).
func (g *Graph) Parents(h digest.Digest) []digest.Digest {
	var out []digest.Digest
	for _, p := range g.parents[h] {
		if _, ok := g.headers[p]; ok {
			out = append(out, p)
		}
	}
	return out
}

// EdgeCount returns |L| restricted to indexed endpoints.
func (g *Graph) EdgeCount() int {
	total := 0
	for hh := range g.headers {
		total += len(g.Parents(hh))
	}
	return total
}

// IsAcyclic verifies the defining DAG property via Kahn's algorithm
// over the indexed subgraph. The construction (children are generated
// strictly later than their parents) guarantees it; this check guards
// against implementation regressions.
func (g *Graph) IsAcyclic() bool {
	indeg := make(map[digest.Digest]int, len(g.headers))
	for hh := range g.headers {
		indeg[hh] = len(g.Parents(hh))
	}
	var queue []digest.Digest
	for hh, d := range indeg {
		if d == 0 {
			queue = append(queue, hh)
		}
	}
	removed := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		removed++
		for _, ch := range g.children[cur] {
			if _, ok := g.headers[ch]; !ok {
				continue
			}
			indeg[ch]--
			if indeg[ch] == 0 {
				queue = append(queue, ch)
			}
		}
	}
	return removed == len(g.headers)
}

// Reachable reports whether to is a descendant of from (paper Sec.
// III-C: a directed path exists in Ḡ).
func (g *Graph) Reachable(from, to digest.Digest) bool {
	if _, ok := g.headers[from]; !ok {
		return false
	}
	if from == to {
		return true
	}
	seen := map[digest.Digest]bool{from: true}
	queue := []digest.Digest{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ch := range g.children[cur] {
			if _, ok := g.headers[ch]; !ok || seen[ch] {
				continue
			}
			if ch == to {
				return true
			}
			seen[ch] = true
			queue = append(queue, ch)
		}
	}
	return false
}

// DescendantCount returns the number of blocks reachable from h
// (excluding h itself) — the pool of potential PoP vouching blocks.
func (g *Graph) DescendantCount(h digest.Digest) int {
	seen := map[digest.Digest]bool{h: true}
	queue := []digest.Digest{h}
	count := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ch := range g.children[cur] {
			if _, ok := g.headers[ch]; !ok || seen[ch] {
				continue
			}
			seen[ch] = true
			count++
			queue = append(queue, ch)
		}
	}
	return count
}

// VoucherReach returns the number of distinct physical nodes owning at
// least one descendant of h, plus one for h's own origin — an upper
// bound on the vouchers PoP can ever collect for h, hence a
// satisfiability oracle for γ.
func (g *Graph) VoucherReach(h digest.Digest) int {
	hdr, ok := g.headers[h]
	if !ok {
		return 0
	}
	owners := map[identity.NodeID]bool{hdr.Origin: true}
	seen := map[digest.Digest]bool{h: true}
	queue := []digest.Digest{h}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ch := range g.children[cur] {
			chh, ok := g.headers[ch]
			if !ok || seen[ch] {
				continue
			}
			seen[ch] = true
			owners[chh.Origin] = true
			queue = append(queue, ch)
		}
	}
	return len(owners)
}

// BlocksPerNode returns how many indexed blocks each origin owns
// (Prop. 1's per-node term).
func (g *Graph) BlocksPerNode() map[identity.NodeID]int {
	out := make(map[identity.NodeID]int)
	for _, h := range g.headers {
		out[h.Origin]++
	}
	return out
}
