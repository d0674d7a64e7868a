package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/metrics"
)

// ProbeConfig drives the time-for-consensus experiment (Fig. 9): how
// many slots must elapse before a block generated in the first γ slots
// can be verified, as a function of γ and the actual malicious count.
type ProbeConfig struct {
	// Base is the simulation configuration (Gamma, Malicious, topology,
	// periods). Audits are disabled automatically; probes run their own
	// verifications.
	Base Config
	// MaxSlots is the probing horizon.
	MaxSlots int
	// Trials is how many independent networks to average over.
	Trials int
	// Stride probes every Stride slots (0 = 1).
	Stride int
}

// ProbeReport is the Fig. 9 data: consensus failure probability per
// elapsed slot.
type ProbeReport struct {
	Slots       []int
	FailureProb []float64
	// SlotsToConsensus is the first probed slot with zero failures
	// across trials, or -1 if never reached within MaxSlots.
	SlotsToConsensus int
}

// ErrNoTarget reports that no eligible probe target existed.
var ErrNoTarget = errors.New("sim: no eligible probe target")

// RunProbe executes the consensus-time experiment.
func RunProbe(cfg ProbeConfig) (*ProbeReport, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	// Targets are blocks generated within the first γ slots (Sec. VI-C).
	window := max(cfg.Base.Gamma, 1)
	if cfg.MaxSlots <= 0 {
		return nil, fmt.Errorf("%w: MaxSlots %d", ErrBadConfig, cfg.MaxSlots)
	}

	var probeSlots []int
	for s := cfg.Stride; s <= cfg.MaxSlots; s += cfg.Stride {
		probeSlots = append(probeSlots, s)
	}
	failures := make([]int, len(probeSlots))

	for trial := 0; trial < cfg.Trials; trial++ {
		base := cfg.Base
		base.disableAudits = true
		base.Seed = cfg.Base.Seed + int64(trial)*7919
		if base.Graph == nil {
			base.Topo.Seed = cfg.Base.Topo.Seed + int64(trial)*104729
		}
		s, err := New(base)
		if err != nil {
			return nil, err
		}
		trialRNG := rand.New(rand.NewSource(base.Seed ^ 0x5eed))

		var target block.Ref
		haveTarget := false
		pi := 0
		for slot := 1; slot <= cfg.MaxSlots; slot++ {
			if err := s.Step(); err != nil {
				return nil, err
			}
			if !haveTarget && slot >= window {
				target, err = pickProbeTarget(s, window, trialRNG)
				if err != nil {
					return nil, err
				}
				haveTarget = true
			}
			if pi < len(probeSlots) && probeSlots[pi] == slot {
				failed := true
				if haveTarget {
					validator, ok := pickHonestValidator(s, target.Node, trialRNG)
					if ok {
						res, verr := s.Verify(validator, target)
						failed = verr != nil || !res.Consensus
					}
				}
				if failed {
					failures[pi]++
				}
				pi++
			}
		}
	}

	rep := &ProbeReport{Slots: probeSlots, FailureProb: make([]float64, len(probeSlots)), SlotsToConsensus: -1}
	for i, f := range failures {
		rep.FailureProb[i] = float64(f) / float64(cfg.Trials)
		if rep.SlotsToConsensus == -1 && f == 0 {
			rep.SlotsToConsensus = probeSlots[i]
		}
	}
	return rep, nil
}

// pickProbeTarget selects a random block generated by an honest node
// within the first window slots.
func pickProbeTarget(s *Sim, window int, rng *rand.Rand) (block.Ref, error) {
	var eligible []block.Ref
	for i := 0; i < s.BlockCount(); i++ {
		ref, slot, err := s.BlockAt(i)
		if err != nil {
			return block.Ref{}, err
		}
		if slot > window {
			break
		}
		if !s.IsMalicious(ref.Node) {
			eligible = append(eligible, ref)
		}
	}
	if len(eligible) == 0 {
		return block.Ref{}, ErrNoTarget
	}
	return eligible[rng.Intn(len(eligible))], nil
}

// pickHonestValidator selects a random honest node other than the
// target's origin.
func pickHonestValidator(s *Sim, exclude identity.NodeID, rng *rand.Rand) (identity.NodeID, bool) {
	var pool []identity.NodeID
	for _, id := range s.ids {
		if id != exclude && !s.IsMalicious(id) {
			pool = append(pool, id)
		}
	}
	if len(pool) == 0 {
		return 0, false
	}
	return pool[rng.Intn(len(pool))], true
}

// Series renders the failure-probability curve.
func (r *ProbeReport) Series(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, slot := range r.Slots {
		s.Append(float64(slot), r.FailureProb[i])
	}
	return s
}
