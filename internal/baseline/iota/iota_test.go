package iota

import (
	"errors"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

func ringGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g, err := topologytest.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunValidation(t *testing.T) {
	g := ringGraph(t, 5)
	bad := []Config{
		{Graph: nil, Slots: 1, BodyBytes: 10},
		{Graph: g, Slots: -1, BodyBytes: 10},
		{Graph: g, Slots: 1, BodyBytes: 0},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

func TestFullReplicationStorage(t *testing.T) {
	g := ringGraph(t, 6)
	cfg := Config{Graph: g, Slots: 10, BodyBytes: 1000, Seed: 1}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := block.DefaultSizeModel(cfg.BodyBytes)
	perTx := int64(m.ConstantBits()) + 2*int64(m.FH) + int64(m.C)
	want := int64(cfg.Slots) * int64(g.Len()) * perTx
	for i, got := range rep.NodeStorageBits {
		if got != want {
			t.Fatalf("node %d storage = %d, want %d (full tangle)", i, got, want)
		}
	}
	if rep.Transactions != cfg.Slots*g.Len()+1 {
		t.Fatalf("tangle size %d, want %d", rep.Transactions, cfg.Slots*g.Len()+1)
	}
}

func TestTipCountStaysBounded(t *testing.T) {
	// Under uniform two-tip selection the expected tip count is small
	// and stable; a runaway tip count indicates broken approval logic.
	g := ringGraph(t, 8)
	rep, err := Run(Config{Graph: g, Slots: 50, BodyBytes: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tips <= 0 || rep.Tips > rep.Transactions/4 {
		t.Fatalf("tip count %d of %d transactions looks wrong", rep.Tips, rep.Transactions)
	}
}

func TestGossipCostScalesWithDegree(t *testing.T) {
	// A complete graph forwards less per node (everyone hears the
	// origin directly... but degree is higher). Instead compare against
	// a line: total flood traffic must still deliver every tx to every
	// node; per-node cost is degree-driven.
	line, err := topologytest.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Graph: line, Slots: 5, BodyBytes: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Endpoints (degree 1) forward nothing on receipt: their comm is
	// only their own origination (degree × size per tx).
	if rep.NodeCommBits[0] >= rep.NodeCommBits[1] {
		t.Fatalf("leaf node transmits more than interior node: %v", rep.NodeCommBits)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := ringGraph(t, 5)
	a, err := Run(Config{Graph: g, Slots: 10, BodyBytes: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Graph: g, Slots: 10, BodyBytes: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tips != b.Tips || a.Transactions != b.Transactions {
		t.Fatal("same seed, different tangles")
	}
	for i := range a.NodeCommBits {
		if a.NodeCommBits[i] != b.NodeCommBits[i] {
			t.Fatal("same seed, different comm")
		}
	}
}

func TestSeriesShapes(t *testing.T) {
	g := ringGraph(t, 5)
	rep, err := Run(Config{Graph: g, Slots: 12, BodyBytes: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.StorageSeries("iota")
	cm := rep.CommSeries("iota")
	if st.Len() != 12 || cm.Len() != 12 {
		t.Fatal("series lengths wrong")
	}
	for i := 1; i < st.Len(); i++ {
		if st.Y[i] <= st.Y[i-1] || cm.Y[i] <= cm.Y[i-1] {
			t.Fatal("cumulative series must be strictly increasing")
		}
	}
}
