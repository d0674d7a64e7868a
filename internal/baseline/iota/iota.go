// Package iota is the tokenless-IOTA (Tangle [19]) baseline of the
// paper's evaluation. Every node issues one transaction per slot; each
// transaction approves two tips chosen uniformly at random (the
// reference tip-selection of the Tangle paper); transactions are
// flooded over the physical radio topology so that every node stores
// the entire tangle — the full-replication property the paper contrasts
// with 2LDAG's store-your-own design.
package iota

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/metrics"
	"github.com/twoldag/twoldag/internal/topology"
)

// ErrBadConfig reports invalid simulation parameters.
var ErrBadConfig = errors.New("iota: invalid config")

// Config parameterizes the baseline run.
type Config struct {
	// Graph is the physical topology used for gossip flooding.
	Graph *topology.Graph
	// Slots is the number of time slots.
	Slots int
	// BodyBytes is C, each transaction's payload.
	BodyBytes int
	// Seed drives tip selection.
	Seed int64
}

func (c Config) validate() error {
	if c.Graph == nil || c.Graph.Len() == 0 {
		return fmt.Errorf("%w: empty topology", ErrBadConfig)
	}
	if c.Slots < 0 {
		return fmt.Errorf("%w: %d slots", ErrBadConfig, c.Slots)
	}
	if c.BodyBytes <= 0 {
		return fmt.Errorf("%w: body %d bytes", ErrBadConfig, c.BodyBytes)
	}
	return nil
}

// Report carries the same shape as the PBFT baseline report.
type Report struct {
	AvgStorageBits  []int64
	AvgCommBits     []int64
	NodeStorageBits []int64
	NodeCommBits    []int64
	// Transactions is the final tangle size.
	Transactions int
	// Tips is the final tip count (a liveness indicator of the
	// tangle; stays small and stable under uniform selection).
	Tips int
}

// txBits is the size of one tangle transaction: payload plus a header
// carrying two parent digests (f_H each) and the f_c constant fields.
func txBits(m block.SizeModel) int64 {
	return int64(m.ConstantBits()) + 2*int64(m.FH) + int64(m.C)
}

// Run executes the baseline. The tip set is simulated transaction by
// transaction (it drives the Tips liveness indicator), but the flood
// accounting is accumulated incrementally: every node originates
// exactly once per slot and forwards every other transaction on first
// receipt, so each node's per-slot traffic is a constant of its
// degree, precomputed once. A run is therefore O(n + slots·n) with no
// per-transaction slice or map churn — the same allocation diet as
// the main path, so the Fig. 7 comparison loop no longer spends its
// wall clock inside the baselines.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := block.DefaultSizeModel(cfg.BodyBytes)
	g := cfg.Graph
	ids := g.Nodes()
	n := len(ids)
	rng := rand.New(rand.NewSource(cfg.Seed))
	size := txBits(m)

	rep := &Report{
		AvgStorageBits:  make([]int64, 0, cfg.Slots),
		AvgCommBits:     make([]int64, 0, cfg.Slots),
		NodeStorageBits: make([]int64, n),
		NodeCommBits:    make([]int64, n),
	}

	// Per-slot traffic per node: the origin transmits its transaction
	// to every neighbor, and every other node, on first receipt of
	// each of the slot's n-1 foreign transactions, forwards to all
	// neighbors but the sender. Every node stores every transaction.
	var slotCommTotal int64
	for i, id := range ids {
		d := int64(g.Degree(id))
		delta := d * size
		if d > 1 {
			delta += int64(n-1) * (d - 1) * size
		}
		rep.NodeCommBits[i] = delta // reused as the per-slot delta below
		slotCommTotal += delta
	}

	// The tangle's tip set, maintained with O(1) uniform picks: a
	// slice for selection plus an index map for swap-removal, so tip
	// selection is deterministic for a seed (the previous map-iteration
	// pick leaked Go's randomized map order into the result).
	// Transaction 0 is the genesis, pre-shared with no traffic.
	tips := []int{0}
	tipPos := map[int]int{0: 0}
	removeTip := func(t int) {
		p, ok := tipPos[t]
		if !ok {
			return
		}
		last := len(tips) - 1
		tips[p] = tips[last]
		tipPos[tips[p]] = p
		tips = tips[:last]
		delete(tipPos, t)
	}
	txCount := 1

	var totStorage, totComm int64
	for slot := 0; slot < cfg.Slots; slot++ {
		for range ids {
			// Two-tip approval (may pick the same tip twice, as in the
			// reference design).
			a, b := tips[rng.Intn(len(tips))], tips[rng.Intn(len(tips))]
			id := txCount
			txCount++
			removeTip(a)
			removeTip(b)
			tipPos[id] = len(tips)
			tips = append(tips, id)
		}
		// n new transactions, each stored by all n nodes.
		totStorage += int64(n) * int64(n) * size
		totComm += slotCommTotal
		rep.AvgStorageBits = append(rep.AvgStorageBits, totStorage/int64(n))
		rep.AvgCommBits = append(rep.AvgCommBits, totComm/int64(n))
	}
	for i := range ids {
		rep.NodeStorageBits[i] = int64(cfg.Slots) * int64(n) * size
		rep.NodeCommBits[i] *= int64(cfg.Slots) // per-slot delta × slots
	}
	rep.Transactions = txCount
	rep.Tips = len(tips)
	return rep, nil
}

// StorageSeries renders per-slot average storage in MB.
func (r *Report) StorageSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgStorageBits {
		s.Append(float64(i+1), metrics.BitsToMB(bits))
	}
	return s
}

// CommSeries renders per-slot average cumulative transmission in Mb.
func (r *Report) CommSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgCommBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}
