package merkle

import "github.com/twoldag/twoldag/internal/digest"

// Root computes the Merkle root over the given leaves: the reference
// RootOfBody and Tree.Root are tested against. An empty leaf set yields
// the zero digest, matching a block with an empty body.
//
// The computation runs in a single reused level slice (each reduction
// writes over the previous level in place), so a root over N leaves
// costs one digest slice regardless of depth.
func Root(leaves [][]byte) digest.Digest {
	if len(leaves) == 0 {
		return digest.Digest{}
	}
	level := make([]digest.Digest, len(leaves))
	hashLeaves(level, leaves)
	return reduceInPlace(level)
}
