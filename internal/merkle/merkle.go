// Package merkle implements the Merkle tree root function M(.) used by
// 2LDAG block headers (paper Sec. III-B, "Root" field) together with
// inclusion proofs, so a validator can check a single sensor sample
// against a header without retrieving the full block body.
//
// Leaves and interior nodes are hashed with distinct domain-separation
// prefixes, which defends against second-preimage attacks that splice an
// interior node in as a leaf. Odd nodes at any level are promoted to the
// next level unchanged (no duplication), which avoids the classic
// duplicate-leaf malleability.
package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"github.com/twoldag/twoldag/internal/digest"
)

// DefaultLeafSize is the chunk size, in bytes, used when computing the
// root of a flat block body.
const DefaultLeafSize = 1024

// Domain-separation prefixes for leaf and interior hashes.
var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// Sentinel errors returned by tree operations.
var (
	ErrEmptyTree    = errors.New("merkle: tree has no leaves")
	ErrLeafIndex    = errors.New("merkle: leaf index out of range")
	ErrBadLeafSize  = errors.New("merkle: leaf size must be positive")
	ErrProofInvalid = errors.New("merkle: proof does not reproduce root")
)

// LeafHash hashes a single leaf with the leaf domain prefix. The prefix
// and the leaf stream into the hasher in turn, so the leaf preimage is
// never copied and nothing is allocated.
func LeafHash(data []byte) digest.Digest {
	return digest.Sum(leafPrefix, data)
}

// NodeHash hashes an interior node from its two children. The preimage
// fits a fixed-size stack buffer, so no memory is allocated.
func NodeHash(left, right digest.Digest) digest.Digest {
	var buf [1 + 2*digest.Size]byte
	buf[0] = nodePrefix[0]
	copy(buf[1:], left[:])
	copy(buf[1+digest.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// hashLeaves fills level with the domain-separated leaf hashes.
func hashLeaves(level []digest.Digest, leaves [][]byte) {
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
}

// reduceInPlace collapses a leaf-hash level to the root, overwriting the
// slice level by level (promoting an odd trailing node unchanged, like
// reduce).
func reduceInPlace(level []digest.Digest) digest.Digest {
	for n := len(level); n > 1; {
		m := 0
		for i := 0; i+1 < n; i += 2 {
			level[m] = NodeHash(level[i], level[i+1])
			m++
		}
		if n%2 == 1 {
			level[m] = level[n-1]
			m++
		}
		n = m
	}
	return level[0]
}

// stackLeaves is how many leaf hashes RootOfBody keeps on the stack: a
// body of up to stackLeaves leaves is hashed without allocating, and a
// larger one grows the same level slice onto the heap, once.
const stackLeaves = 8

// RootOfBody splits a flat body into leafSize chunks and computes the
// root. This is the form used for block bodies: the paper's M(b^d). The
// body is hashed chunk by chunk without materializing a chunk slice.
func RootOfBody(body []byte, leafSize int) (digest.Digest, error) {
	if leafSize <= 0 {
		return digest.Digest{}, fmt.Errorf("%w: %d", ErrBadLeafSize, leafSize)
	}
	if len(body) == 0 {
		return digest.Digest{}, nil
	}
	var stack [stackLeaves]digest.Digest
	level := slices.Grow(stack[:0], (len(body)+leafSize-1)/leafSize)
	for lo := 0; lo < len(body); lo += leafSize {
		level = append(level, LeafHash(body[lo:min(lo+leafSize, len(body))]))
	}
	return reduceInPlace(level), nil
}

// split cuts body into chunks of at most leafSize bytes. A nil body
// produces no chunks.
func split(body []byte, leafSize int) [][]byte {
	if len(body) == 0 {
		return nil
	}
	chunks := make([][]byte, 0, (len(body)+leafSize-1)/leafSize)
	for len(body) > leafSize {
		chunks = append(chunks, body[:leafSize])
		body = body[leafSize:]
	}
	return append(chunks, body)
}

// reduce combines one tree level into the next, promoting an odd trailing
// node unchanged.
func reduce(level []digest.Digest) []digest.Digest {
	next := make([]digest.Digest, 0, (len(level)+1)/2)
	for i := 0; i+1 < len(level); i += 2 {
		next = append(next, NodeHash(level[i], level[i+1]))
	}
	if len(level)%2 == 1 {
		next = append(next, level[len(level)-1])
	}
	return next
}

// Tree is a fully materialized Merkle tree supporting proof generation.
// Build one with NewTree; the zero value is unusable.
type Tree struct {
	levels [][]digest.Digest // levels[0] = leaf hashes, last = [root]
}

// NewTree builds a tree over the given leaves.
func NewTree(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	base := make([]digest.Digest, len(leaves))
	hashLeaves(base, leaves)
	levels := [][]digest.Digest{base}
	for cur := base; len(cur) > 1; {
		cur = reduce(cur)
		levels = append(levels, cur)
	}
	return &Tree{levels: levels}, nil
}

// NewTreeFromBody builds a tree over a flat body split into leafSize
// chunks.
func NewTreeFromBody(body []byte, leafSize int) (*Tree, error) {
	if leafSize <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLeafSize, leafSize)
	}
	chunks := split(body, leafSize)
	if len(chunks) == 0 {
		return nil, ErrEmptyTree
	}
	return NewTree(chunks)
}

// Root returns the tree root.
func (t *Tree) Root() digest.Digest {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int {
	return len(t.levels[0])
}

// ProofStep is one sibling hash on the path from a leaf to the root.
type ProofStep struct {
	Sibling digest.Digest
	// Left reports whether the sibling sits to the left of the running
	// hash at this level.
	Left bool
}

// Proof is an inclusion proof for a single leaf.
type Proof struct {
	LeafIndex int
	Steps     []ProofStep
}

// Proof generates an inclusion proof for leaf i.
func (t *Tree) Proof(i int) (Proof, error) {
	if i < 0 || i >= t.NumLeaves() {
		return Proof{}, fmt.Errorf("%w: %d of %d", ErrLeafIndex, i, t.NumLeaves())
	}
	p := Proof{LeafIndex: i}
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		if idx%2 == 0 {
			if idx+1 < len(level) {
				p.Steps = append(p.Steps, ProofStep{Sibling: level[idx+1], Left: false})
			}
			// Odd trailing node: promoted, no sibling at this level.
		} else {
			p.Steps = append(p.Steps, ProofStep{Sibling: level[idx-1], Left: true})
		}
		idx /= 2
	}
	return p, nil
}

// Verify checks that leaf data at the proof's position hashes up to root.
func (p Proof) Verify(root digest.Digest, leaf []byte) error {
	h := LeafHash(leaf)
	for _, s := range p.Steps {
		if s.Left {
			h = NodeHash(s.Sibling, h)
		} else {
			h = NodeHash(h, s.Sibling)
		}
	}
	if h != root {
		return fmt.Errorf("%w: computed %s, want %s", ErrProofInvalid, h, root)
	}
	return nil
}
