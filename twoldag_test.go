package twoldag

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

func testCluster(t *testing.T, nodes, gamma int) *Cluster {
	t.Helper()
	rt, err := New(
		WithNodes(nodes), WithGamma(gamma), WithSeed(7),
		WithDifficulty(2), WithRequestTimeout(time.Second),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt.(*Cluster)
}

func fill(t *testing.T, c *Cluster, slots int) []Ref {
	t.Helper()
	ctx := context.Background()
	var refs []Ref
	for s := 0; s < slots; s++ {
		c.AdvanceSlot()
		for _, id := range c.Nodes() {
			ref, err := c.Submit(ctx, id, []byte{byte(s), byte(id)})
			if err != nil {
				t.Fatalf("Submit(%v): %v", id, err)
			}
			refs = append(refs, ref)
		}
	}
	return refs
}

func TestClusterEndToEnd(t *testing.T) {
	c := testCluster(t, 10, 3)
	refs := fill(t, c, 4)
	validator := c.Nodes()[9]
	target := refs[0]
	if target.Node == validator {
		target = refs[1]
	}
	res, err := c.Audit(context.Background(), validator, target)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !res.Consensus {
		t.Fatal("no consensus on a healthy cluster")
	}
	if len(res.Vouchers) < 4 {
		t.Fatalf("vouchers %v, want at least γ+1 = 4", res.Vouchers)
	}
}

func TestClusterBlockRetrieval(t *testing.T) {
	c := testCluster(t, 6, 1)
	refs := fill(t, c, 2)
	b, err := c.Block(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Header.Ref() != refs[0] {
		t.Fatal("retrieved wrong block")
	}
	if _, err := c.Block(Ref{Node: 99}); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestClusterSilenceRoutesAround(t *testing.T) {
	c := testCluster(t, 10, 2)
	refs := fill(t, c, 3)
	ids := c.Nodes()
	target := refs[0]
	// Silence one node that is neither validator nor target origin.
	var victim NodeID
	for _, id := range ids {
		if id != target.Node && id != ids[len(ids)-1] {
			victim = id
			break
		}
	}
	if err := c.Silence(victim); err != nil {
		t.Fatal(err)
	}
	res, err := c.Audit(context.Background(), ids[len(ids)-1], target)
	if err != nil {
		t.Fatalf("audit after silencing %v: %v", victim, err)
	}
	if !res.Consensus {
		t.Fatal("no consensus after one node silenced")
	}
	for _, v := range res.Vouchers {
		if v == victim {
			t.Fatal("silenced node vouched")
		}
	}
	if err := c.Silence(victim); err == nil {
		t.Fatal("double silence accepted")
	}
}

func TestClusterGammaTooHighFails(t *testing.T) {
	if _, err := New(WithNodes(5), WithGamma(5), WithSeed(1)); err == nil {
		t.Fatal("gamma == nodes accepted")
	}
	if _, err := New(WithGamma(0)); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestClusterUnknownIDs(t *testing.T) {
	c := testCluster(t, 5, 1)
	ctx := context.Background()
	if _, err := c.Submit(ctx, 99, []byte("x")); err == nil {
		t.Fatal("unknown submitter accepted")
	}
	if _, err := c.Audit(ctx, 99, Ref{}); err == nil {
		t.Fatal("unknown validator accepted")
	}
}

func TestClusterExplicitTopology(t *testing.T) {
	g := topologytest.PaperFig4()
	c, err := New(WithTopology(g), WithGamma(2), WithSeed(3), WithDifficulty(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	c.AdvanceSlot()
	for _, id := range c.Nodes() {
		if _, err := c.Submit(ctx, id, []byte("genesis")); err != nil {
			t.Fatal(err)
		}
	}
	c.AdvanceSlot()
	refB, err := c.Submit(ctx, 1, []byte("B1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, 3, []byte("D1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, 4, []byte("E1")); err != nil {
		t.Fatal(err)
	}
	res, err := c.Audit(ctx, 0, refB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus {
		t.Fatal("Fig. 4 audit failed over the facade")
	}
}

func TestClusterNoConsensusSurfacesSentinel(t *testing.T) {
	g := topologytest.PaperFig6() // 3 nodes
	c, err := New(WithTopology(g), WithGamma(2), WithSeed(3), WithDifficulty(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	c.AdvanceSlot()
	ref, err := c.Submit(ctx, 1, []byte("lonely"))
	if err != nil {
		t.Fatal(err)
	}
	// No descendants exist yet: γ=2 needs 3 vouchers, impossible.
	if _, err := c.Audit(ctx, 0, ref); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("want ErrNoConsensus, got %v", err)
	}
}

func TestClusterDeterministicTopology(t *testing.T) {
	a := testCluster(t, 8, 1)
	b := testCluster(t, 8, 1)
	as, bs := a.Topology().Summary(), b.Topology().Summary()
	if as.Edges != bs.Edges || as.Diameter != bs.Diameter {
		t.Fatal("same seed built different clusters")
	}
}
