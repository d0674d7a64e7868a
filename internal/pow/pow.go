// Package pow implements the lightweight proof-of-work nonce search of
// 2LDAG (paper Eq. 5): a node must find a nonce n such that
// H(M(b^d), Δ, n) ≤ ρ before publishing a block. The difficulty ρ is
// deliberately tiny — it exists to rate-limit block generation (the DoS
// defense of Sec. IV-D5, the same strategy as IOTA), not to elect miners.
//
// Difficulty is expressed as the required number of leading zero bits of
// the digest, which is equivalent to the paper's "≤ ρ" threshold form
// with ρ = 2^(256-k) - 1.
//
// The search grinds from a SHA-256 midstate. Every try hashes the same
// prefix M(b^d) ‖ Δ followed by a different 4-byte nonce, and SHA-256
// consumes its input left to right in 64-byte blocks, so the state
// after the prefix is the same for every nonce: SearchPrefix absorbs
// the prefix once, saves that state, and per try restores it and
// hashes only the nonce (plus whatever unaligned tail of the prefix the
// state still buffers) — one compression instead of one per 64 bytes
// of prefix. The preimage is byte for byte the one VerifyPrefix hashes
// whole, so the digest, the difficulty test and the smallest-nonce rule
// — and with them every sealed header — are unchanged.
package pow

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"github.com/twoldag/twoldag/internal/digest"
)

// Difficulty is the required number of leading zero bits (0..=256).
// The zero value accepts every digest, which is useful in tests.
type Difficulty uint8

// DefaultDifficulty keeps nonce search around tens of microseconds on a
// desktop CPU — "found quickly, e.g. in seconds" on an IoT-class device
// per the paper — while still throttling flooding attackers.
const DefaultDifficulty Difficulty = 8

// NonceSize is the wire size of a nonce in bytes (f_n = 32 bits).
const NonceSize = 4

// ErrExhausted reports that no satisfying nonce was found within the
// caller's bound.
var ErrExhausted = errors.New("pow: nonce space exhausted without solution")

// Meets reports whether d satisfies the difficulty.
func Meets(d digest.Digest, diff Difficulty) bool {
	return d.LeadingZeroBits() >= int(diff)
}

// AppendNonce appends the 4-byte little-endian encoding of nonce to b.
func AppendNonce(b []byte, nonce uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, nonce)
}

// SearchPrefix finds the smallest nonce such that
// H(prefix || nonce_le32) has at least diff leading zero bits, trying at
// most maxTries nonces (0 means the full 2^32 space).
func SearchPrefix(prefix []byte, diff Difficulty, maxTries uint64) (uint32, digest.Digest, error) {
	if maxTries == 0 || maxTries > 1<<32 {
		maxTries = 1 << 32
	}
	// crypto/sha256 documents that its Hash marshals and unmarshals
	// its internal state; that state is the midstate.
	h := sha256.New().(interface {
		hash.Hash
		encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler
	})
	h.Write(prefix) // sha256 never returns an error
	mid, err := h.MarshalBinary()
	if err != nil {
		return 0, digest.Digest{}, fmt.Errorf("pow: saving hash state: %w", err)
	}
	var (
		nonce [NonceSize]byte
		d     digest.Digest
	)
	for i := uint64(0); i < maxTries; i++ {
		if err := h.UnmarshalBinary(mid); err != nil {
			return 0, digest.Digest{}, fmt.Errorf("pow: restoring hash state: %w", err)
		}
		binary.LittleEndian.PutUint32(nonce[:], uint32(i))
		h.Write(nonce[:])
		h.Sum(d[:0])
		if Meets(d, diff) {
			return uint32(i), d, nil
		}
	}
	return 0, digest.Digest{}, fmt.Errorf("%w: difficulty %d after %d tries", ErrExhausted, diff, maxTries)
}

// VerifyPrefix checks that nonce solves the puzzle for prefix at diff.
func VerifyPrefix(prefix []byte, nonce uint32, diff Difficulty) bool {
	return Meets(digest.Sum(AppendNonce(prefix, nonce)), diff)
}

// ExpectedTries returns the expected number of hash evaluations to solve
// a puzzle at the given difficulty (2^diff). It saturates at 2^63 to stay
// in range. Useful for calibrating block-generation intervals.
func ExpectedTries(diff Difficulty) uint64 {
	if diff >= 63 {
		return 1 << 63
	}
	return 1 << diff
}
