package cluster

import (
	"errors"
	"fmt"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// Placement describes where a dynamic joiner lands: its allocated ID,
// the live device it anchors to, and its position in the radio plane.
// The same placement rule runs everywhere a join happens — the
// in-process drivers, a joining Host, and every member replaying a
// peer's join from its Hello — so all views of the topology agree.
type Placement struct {
	ID     identity.NodeID
	Anchor identity.NodeID
	Pos    topology.Point
}

// PlanJoin computes the next joiner's placement against the current
// topology without mutating it (the paper's Sec. VII
// dynamic-membership extension). ids lists the known devices in join
// order; isLive reports which still run.
func PlanJoin(topo *topology.Graph, ids []identity.NodeID, isLive func(identity.NodeID) bool) (Placement, error) {
	if len(ids) == 0 {
		return Placement{}, errors.New("cluster: cannot join an empty cluster")
	}
	// Collision safety: probe upward from the highest known ID until an
	// ID unused by the graph is found — manually linked graphs may hold
	// arbitrary IDs.
	id := ids[len(ids)-1] + 1
	for topo.Has(id) {
		id++
	}
	// Anchor at the newest still-live device: anchoring at a silenced
	// node would strand the joiner behind a dead radio.
	anchor := ids[len(ids)-1]
	for i := len(ids) - 1; i >= 0; i-- {
		if isLive(ids[i]) {
			anchor = ids[i]
			break
		}
	}
	ap, _ := topo.Position(anchor)
	r := topo.CommRange()
	if r <= 0 {
		r = 2 // manually linked graphs: Apply links to the anchor below
	}
	return Placement{ID: id, Anchor: anchor, Pos: topology.Point{X: ap.X + r/2, Y: ap.Y}}, nil
}

// Apply wires the placement into the radio graph: the joiner is added
// at its position (auto-linking every device in communication range)
// and, on range-less hand-linked graphs, linked to its anchor
// directly.
func (p Placement) Apply(topo *topology.Graph) error {
	if err := topo.AddNode(p.ID, p.Pos); err != nil {
		return fmt.Errorf("cluster: joining: %w", err)
	}
	if topo.Degree(p.ID) == 0 {
		if err := topo.Link(p.Anchor, p.ID); err != nil {
			_ = topo.RemoveNode(p.ID)
			return fmt.Errorf("cluster: linking joiner: %w", err)
		}
	}
	return nil
}

// PlaceJoiner plans and applies the next join in one step, returning
// the allocated ID — the verb the in-process drivers use.
func PlaceJoiner(topo *topology.Graph, ids []identity.NodeID, isLive func(identity.NodeID) bool) (identity.NodeID, error) {
	p, err := PlanJoin(topo, ids, isLive)
	if err != nil {
		return 0, err
	}
	if err := p.Apply(topo); err != nil {
		return 0, err
	}
	return p.ID, nil
}
