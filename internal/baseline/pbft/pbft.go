// Package pbft is the PBFT-blockchain baseline of the paper's
// evaluation (Sec. VI, comparing against Castro-Liskov PBFT [29]).
//
// The model executes the protocol's message flow rather than a closed-
// form formula: per slot every node submits its C-bit transaction to a
// rotating primary, the primary assembles a block of all transactions
// and broadcasts it in PRE-PREPARE, then every replica broadcasts
// PREPARE and COMMIT control messages (each a digest plus signature) to
// every other replica — the O(n²) three-phase exchange whose cost the
// paper contrasts with 2LDAG. Every node appends the full block, so
// storage is fully replicated.
package pbft

import (
	"errors"
	"fmt"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/metrics"
)

// ErrBadConfig reports invalid simulation parameters.
var ErrBadConfig = errors.New("pbft: invalid config")

// Config parameterizes the baseline run.
type Config struct {
	// Nodes is the replica count n.
	Nodes int
	// Slots is the number of consensus rounds (one block each).
	Slots int
	// BodyBytes is C: each node's per-slot transaction payload.
	BodyBytes int
}

func (c Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("%w: %d nodes", ErrBadConfig, c.Nodes)
	}
	if c.Slots < 0 {
		return fmt.Errorf("%w: %d slots", ErrBadConfig, c.Slots)
	}
	if c.BodyBytes <= 0 {
		return fmt.Errorf("%w: body %d bytes", ErrBadConfig, c.BodyBytes)
	}
	return nil
}

// Report carries per-slot averages and final per-node samples.
type Report struct {
	// AvgStorageBits[s] is the average per-node chain size after slot
	// s+1.
	AvgStorageBits []int64
	// AvgCommBits[s] is the average cumulative per-node transmission
	// after slot s+1.
	AvgCommBits []int64
	// NodeStorageBits and NodeCommBits are final per-node samples (CDF
	// inputs).
	NodeStorageBits []int64
	NodeCommBits    []int64
	// Blocks is the chain length.
	Blocks int
}

// controlBits is the size of one PREPARE or COMMIT message: a block
// digest plus a signature.
func controlBits(m block.SizeModel) int64 {
	return int64(m.FH + m.FS)
}

// blockBits is the size of one PBFT block: n transactions of C bits
// plus a chain header (previous hash, Merkle root, metadata — the
// paper's f_c constant is reused for comparability).
func blockBits(m block.SizeModel, n int) int64 {
	return int64(m.ConstantBits()) + int64(n)*int64(m.C)
}

// Run executes the baseline and returns its cost report. Per-slot
// traffic follows the protocol's message flow — every node submits
// its C-bit transaction to the rotating primary, the primary
// broadcasts the assembled block in PRE-PREPARE, and every replica
// broadcasts PREPARE and COMMIT — but the accounting is accumulated
// incrementally (running network totals per slot, the rotation's
// closed form for the final per-node samples), so a run is O(slots+n)
// with all report slices preallocated: the baselines share the main
// path's allocation diet instead of dominating the Fig. 7 comparison
// loop.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := block.DefaultSizeModel(cfg.BodyBytes)
	n := cfg.Nodes
	rep := &Report{
		AvgStorageBits:  make([]int64, 0, cfg.Slots),
		AvgCommBits:     make([]int64, 0, cfg.Slots),
		NodeStorageBits: make([]int64, n),
		NodeCommBits:    make([]int64, n),
	}
	bb := blockBits(m, n)
	cb := controlBits(m)
	txBits := int64(m.C) + int64(m.FS) // signed submission to the primary
	// Every slot moves the same network-wide volume, whoever is
	// primary: n nodes broadcast PREPARE and COMMIT to n-1 peers, the
	// n-1 replicas submit their transaction, and the primary
	// broadcasts the block. REPLY/checkpointing traffic is omitted,
	// matching the paper's three-phase accounting.
	slotComm := int64(n)*2*int64(n-1)*cb + int64(n-1)*txBits + int64(n-1)*bb
	var totStorage, totComm int64
	for slot := 0; slot < cfg.Slots; slot++ {
		totStorage += int64(n) * bb // full replication
		totComm += slotComm
		rep.Blocks++
		rep.AvgStorageBits = append(rep.AvgStorageBits, totStorage/int64(n))
		rep.AvgCommBits = append(rep.AvgCommBits, totComm/int64(n))
	}
	// Final per-node samples: primary = slot mod n, so node i led
	// ceil((Slots - i) / n) rounds.
	full, rem := cfg.Slots/n, cfg.Slots%n
	for i := 0; i < n; i++ {
		led := int64(full)
		if i < rem {
			led++
		}
		rep.NodeStorageBits[i] = int64(cfg.Slots) * bb
		rep.NodeCommBits[i] = int64(cfg.Slots)*2*int64(n-1)*cb +
			(int64(cfg.Slots)-led)*txBits + led*int64(n-1)*bb
	}
	return rep, nil
}

// StorageSeries renders the per-slot average storage in MB.
func (r *Report) StorageSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgStorageBits {
		s.Append(float64(i+1), metrics.BitsToMB(bits))
	}
	return s
}

// CommSeries renders the per-slot average cumulative transmission in
// Mb.
func (r *Report) CommSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgCommBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}
