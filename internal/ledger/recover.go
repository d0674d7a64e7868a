package ledger

import (
	"github.com/twoldag/twoldag/internal/block"
)

// Replay verification. Every replayed block is re-sealed (body root,
// header hash: a few µs; a segment block as the scan reads it, the
// others here) and, with a Ring, authenticated. Its own
// signature would cost ~60 µs, but the blocks a run replays are one
// device's hash chain — Δ[0] of each is its predecessor's header hash —
// so the newest block's signature commits to all of them
// (block.Params.VerifyChain). Only when that proof fails does the run
// validate block by block, and that pass alone decides which block is
// at fault and why. (Restored trust headers are other devices' and
// chain to nothing here: the scans validate each as they read it.)
//
// The scan that queues this work does everything order-sensitive
// (decode, owner/seq checks, trust-horizon bookkeeping) and stops at
// its first error; the first failing block is reported ahead of it, so
// state, report and errors are those of a pass that validated each
// record as it read it.

// recoverVerifier queues the verification work a sequential scan
// discovers and runs it once the scan is done.
type recoverVerifier struct {
	opts RecoverOptions
	// prev is the newest block the store held before this run, which
	// the run's first block must link to; nil for an empty store.
	prev   *block.Header
	blocks []*block.Block
	labels []int // scan position of each block: WAL offset or segment index
}

// add queues one decoded block; label is its position in the scanned
// input, used only for error formatting.
func (v *recoverVerifier) add(b *block.Block, label int) {
	v.blocks = append(v.blocks, b)
	v.labels = append(v.labels, label)
}

// checkBlocks returns the first queued block that fails and why, or
// len(v.blocks) and nil. Tests swap in the per-block reference to
// prove the two agree.
var checkBlocks = (*recoverVerifier).checkBlocks

// checkBlocks re-seals every queued block the scan has not (the
// segment's come sealed, their bodies already let go) and, with a Ring,
// accepts the run on its chain proof or else validates it block by
// block.
func (v *recoverVerifier) checkBlocks() (int, error) {
	p, ring := v.opts.Params, v.opts.Ring
	sealed := len(v.blocks)
	var sealErr error
	for i, b := range v.blocks {
		if b.Sealed() {
			continue
		}
		if sealErr = p.SealBlock(b); sealErr != nil {
			sealed = i
			break
		}
	}
	if ring != nil && (sealErr != nil || !p.VerifyChain(v.prev, v.blocks, ring)) {
		for i, b := range v.blocks[:sealed] {
			if err := p.Validate(b, ring); err != nil {
				return i, err
			}
		}
	}
	return sealed, sealErr
}

// run verifies every queued block and returns the first failure,
// rendered by errf from the block's label.
func (v *recoverVerifier) run(errf func(label int, err error) error) error {
	if bad, err := checkBlocks(v); err != nil {
		return errf(v.labels[bad], err)
	}
	return nil
}
