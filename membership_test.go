package twoldag

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/topology"
)

// Dynamic-membership coverage through the Runtime API (the paper's
// Sec. VII extension): joining after churn, audits routing around
// silenced devices, and ID allocation safety on hand-built graphs.

// TestJoinAfterAnchorSilence silences the newest device — the one a
// joiner would historically anchor to — and verifies Join re-anchors
// at a live device so the joiner is not stranded behind a dead radio.
func TestJoinAfterAnchorSilence(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"live", baseOptions(8, 1)},
		{"sim", append(baseOptions(8, 1), WithSimulator())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, tc.opts...)
			refs := fillBatch(t, rt, 2)
			ids := rt.Nodes()
			anchor := ids[len(ids)-1]
			if err := rt.Silence(anchor); err != nil {
				t.Fatalf("silencing anchor: %v", err)
			}
			joiner, err := rt.Join()
			if err != nil {
				t.Fatalf("Join after anchor silence: %v", err)
			}
			topo := rt.Topology()
			if !topo.Has(joiner) || topo.Degree(joiner) == 0 {
				t.Fatal("joiner not wired into the radio graph")
			}
			// The joiner must reach at least one live device, not only
			// the silenced anchor.
			liveLink := false
			for _, nb := range topo.Neighbors(joiner) {
				if nb == anchor {
					continue
				}
				if _, err := rt.Block(Ref{Node: nb, Seq: 0}); err == nil {
					liveLink = true
					break
				}
			}
			if !liveLink {
				t.Fatalf("joiner %v anchored only to silenced devices (neighbors %v)",
					joiner, topo.Neighbors(joiner))
			}
			// And it participates: submits and audits old data.
			ctx := context.Background()
			rt.AdvanceSlot()
			if _, err := rt.Submit(ctx, joiner, []byte("post-join")); err != nil {
				t.Fatalf("joiner submit: %v", err)
			}
			res, err := rt.Audit(ctx, joiner, refs[0])
			if err != nil {
				t.Fatalf("joiner audit: %v", err)
			}
			if !res.Consensus {
				t.Fatal("joiner failed to audit pre-join data")
			}
		})
	}
}

// TestAuditsRouteAroundSilenced fans audits out after churn on both
// drivers: consensus must hold and no silenced device may vouch.
func TestAuditsRouteAroundSilenced(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"live", baseOptions(10, 2)},
		{"sim", append(baseOptions(10, 2), WithSimulator())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setGOMAXPROCS(t, 4)
			if err := routeAroundRun(tc.opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// routeAroundRun is TestAuditsRouteAroundSilenced's body on one driver:
// it silences one device after three slots, then audits four
// first-slot blocks of devices still online from the last device. It
// returns the first step that failed: a seal, a Silence, or an audit
// that failed, reached no consensus or counted the silenced device
// among its vouchers. It closes the runtime before it returns, and
// reports through its result alone, so it may run on a goroutine other
// than the test's.
func routeAroundRun(opts ...Option) error {
	rt, err := New(opts...)
	if err != nil {
		return err
	}
	defer rt.Close()
	refs, err := fillSlots(rt, 3)
	if err != nil {
		return err
	}
	ids := rt.Nodes()
	validator := ids[len(ids)-1]
	target := refs[0]
	var victim NodeID
	for _, id := range ids {
		if id != target.Node && id != validator {
			victim = id
			break
		}
	}
	if err := rt.Silence(victim); err != nil {
		return err
	}
	if err := rt.Silence(victim); err == nil {
		return errors.New("double silence accepted")
	}
	// Audit first-slot blocks of devices that are still online (a
	// silenced origin cannot serve its own block at all).
	var reqs []AuditRequest
	for _, ref := range refs[:len(refs)/3] {
		if ref.Node == victim || ref.Node == validator {
			continue
		}
		reqs = append(reqs, AuditRequest{Validator: validator, Ref: ref})
		if len(reqs) == 4 {
			break
		}
	}
	for _, out := range rt.AuditMany(context.Background(), reqs) {
		if out.Err != nil {
			return fmt.Errorf("audit %v after silencing %v: %w", out.Request.Ref, victim, out.Err)
		}
		if !out.Result.Consensus {
			return fmt.Errorf("no consensus on %v after one node silenced", out.Request.Ref)
		}
		for _, v := range out.Result.Vouchers {
			if v == victim {
				return fmt.Errorf("silenced node %v vouched for %v", victim, out.Request.Ref)
			}
		}
	}
	return nil
}

// TestFreshAuditsKeepNeighboursAcknowledging audits every device's
// newest block from every device, four times over, before any device
// has sealed a child of it, so every REQ_CHILD of those audits is
// answered "no child yet", an honest reply. The next slot's batch must
// still be acknowledged by every neighbour within a short deadline: a
// validator that counted those replies against the neighbour, and then
// dropped its announcements, left the batch "unacknowledged by" it.
func TestFreshAuditsKeepNeighboursAcknowledging(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"live", baseOptions(8, 2)},
		{"sim", append(baseOptions(8, 2), WithSimulator())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, tc.opts...)
			fresh := fillBatch(t, rt, 1)
			var reqs []AuditRequest
			for _, v := range rt.Nodes() {
				for _, ref := range fresh {
					for k := 0; k < 4; k++ {
						reqs = append(reqs, AuditRequest{Validator: v, Ref: ref})
					}
				}
			}
			// No verdict is asked of these audits: a block nobody has
			// referenced yet cannot gather γ+1 vouchers.
			rt.AuditMany(context.Background(), reqs)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			rt.AdvanceSlot()
			if _, err := rt.SubmitBatch(ctx, slotBatch(rt.Nodes(), 1, "after the audits")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// manualGraph links devices with arbitrary, non-contiguous IDs by
// hand, the shape Join's ID allocation must stay collision-free on.
func manualGraph(t *testing.T, ids ...NodeID) *topology.Graph {
	t.Helper()
	g := topology.New(0) // no radio range: all links are manual
	for i, id := range ids {
		if err := g.AddNode(id, topology.Point{X: float64(i), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ids); i++ {
		if err := g.Link(ids[i-1], ids[i]); err != nil {
			t.Fatal(err)
		}
		if err := g.Link(ids[0], ids[i]); err != nil && i > 1 {
			t.Fatal(err)
		}
	}
	return g
}

// TestJoinIDCollisionSafetyOnManualGraph pins Join's allocation rule
// on hand-linked graphs: new IDs never collide with existing graph
// nodes (contiguous or not), never resurrect silenced IDs, and each
// joiner registers exactly once in the key ring.
func TestJoinIDCollisionSafetyOnManualGraph(t *testing.T) {
	g := manualGraph(t, 0, 5, 9)
	rt := newRuntime(t, WithTopology(g), WithGamma(1), WithSeed(3), WithDifficulty(2))

	seen := map[NodeID]bool{0: true, 5: true, 9: true}
	var joiners []NodeID
	for k := 0; k < 3; k++ {
		id, err := rt.Join()
		if err != nil {
			t.Fatalf("join %d: %v", k, err)
		}
		if seen[id] {
			t.Fatalf("join %d: ID %v collides", k, id)
		}
		seen[id] = true
		joiners = append(joiners, id)
		if !rt.Topology().Has(id) || rt.Topology().Degree(id) == 0 {
			t.Fatalf("joiner %v not linked", id)
		}
	}
	// Silencing a joiner must not free its ID for reuse.
	if err := rt.Silence(joiners[len(joiners)-1]); err != nil {
		t.Fatal(err)
	}
	id, err := rt.Join()
	if err != nil {
		t.Fatalf("join after silence: %v", err)
	}
	if seen[id] {
		t.Fatalf("silenced ID %v resurrected", id)
	}
	// The surviving joiners work: submissions announce and land.
	ctx := context.Background()
	rt.AdvanceSlot()
	for _, j := range append(joiners[:len(joiners)-1], id) {
		if _, err := rt.Submit(ctx, j, []byte("manual graph")); err != nil {
			t.Fatalf("joiner %v submit: %v", j, err)
		}
	}
}

// TestJoinFailureLeavesNoTrace: a Join whose device cannot start — here
// a durable cluster whose data dir already holds a damaged checkpoint
// for the joiner's ID — must leave no phantom behind: the radio graph,
// every neighbor list and the key ring are as before, so no device puts
// a Δ entry for it in its blocks or announces to it. Once the damage is
// gone, the retry gets the same ID and the joiner takes part.
func TestJoinFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	rt := newRuntime(t, append(baseOptions(8, 1), WithDataDir(dir))...)
	c := rt.(*Cluster)
	refs := fillBatch(t, rt, 2)

	next := NodeID(len(rt.Nodes()))
	ckpt := filepath.Join(dir, "node-8", "checkpoint.2ldg")
	if next != 8 {
		t.Fatalf("the joiner would get ID %v, want 8", next)
	}
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	neighbors := func() map[NodeID][]NodeID {
		out := map[NodeID][]NodeID{}
		for _, id := range c.topo.Nodes() {
			out[id] = c.topo.Neighbors(id)
		}
		return out
	}
	topoBefore, ringBefore := neighbors(), c.ring.Len()
	if _, err := rt.Join(); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("Join over a damaged checkpoint: %v, want a checkpoint error", err)
	}
	if got := c.topo.Len(); got != len(topoBefore) {
		t.Fatalf("topology holds %d devices after the failed Join, want %d", got, len(topoBefore))
	}
	if got := neighbors(); !reflect.DeepEqual(got, topoBefore) {
		t.Fatalf("neighbor lists changed by the failed Join: %v, want %v", got, topoBefore)
	}
	if got := c.ring.Len(); got != ringBefore {
		t.Fatalf("ring holds %d keys after the failed Join, want %d", got, ringBefore)
	}

	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	id, err := rt.Join()
	if err != nil {
		t.Fatalf("Join after the damage was removed: %v", err)
	}
	if id != next {
		t.Fatalf("the retried Join got ID %v, want %v", id, next)
	}
	rt.AdvanceSlot()
	if _, err := rt.SubmitBatch(context.Background(), []Submission{{Node: id, Data: []byte("joined")}}); err != nil {
		t.Fatalf("joiner SubmitBatch: %v", err)
	}
	res, err := rt.Audit(context.Background(), id, refs[0])
	if err != nil || !res.Consensus {
		t.Fatalf("joiner audit of pre-join data: %v", err)
	}
}
