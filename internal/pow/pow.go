// Package pow implements the lightweight proof-of-work nonce search of
// 2LDAG (paper Eq. 5): a node must find a nonce n such that
// H(M(b^d), Δ, n) ≤ ρ before publishing a block. The difficulty ρ is
// deliberately tiny, as in IOTA: it prices block generation rather than
// electing miners. Every header on an audit path must carry a solved
// nonce (block.Params.ValidateHeader and VerifyChain check it), but no
// receiver limits how fast a neighbor announces: Sec. IV-D5's ban on a
// neighbor generating faster than PoW plausibly allows is not
// reproduced.
//
// Difficulty is expressed as the required number of leading zero bits of
// the digest, which is equivalent to the paper's "≤ ρ" threshold form
// with ρ = 2^(256-k) - 1.
//
// The search grinds from a SHA-256 midstate. Every try hashes the same
// prefix M(b^d) ‖ Δ followed by a different 4-byte nonce, and SHA-256
// consumes its input left to right in 64-byte blocks, so the state
// after the prefix's whole blocks is the same for every nonce:
// SearchPrefix absorbs those once and saves that state. It also builds
// the message's final block(s) once, padded per FIPS 180-4 §5.1.1 —
// the prefix's unaligned tail ‖ nonce ‖ 0x80 ‖ zeros ‖ the message's
// bit length — so only the nonce bytes change from try to try. A try
// restores the state, writes the padded block(s), which runs the last
// compression, and reads the resulting chaining value back through
// the hash's documented state marshalling: after the padded final
// block that value is the digest, so no Sum runs. The preimage is byte
// for byte the one VerifyPrefix hashes whole, so the digest, the
// difficulty test and the smallest-nonce rule — and with them every
// sealed header — are unchanged; the winning nonce is re-hashed the
// plain way once, and a disagreement is returned as an error.
package pow

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/twoldag/twoldag/internal/digest"
)

// Difficulty is the required number of leading zero bits (0..=256).
// The zero value accepts every digest, which is useful in tests.
type Difficulty uint8

// DefaultDifficulty keeps nonce search around tens of microseconds on a
// desktop CPU — "found quickly, e.g. in seconds" on an IoT-class device
// per the paper. It prices a seal; it throttles no receiver.
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
	// its internal state. The layout is its own: a 4-byte identifier,
	// the chaining value h0..h7 big-endian — after a padded final
	// block, the digest — then the buffered input and the length. The
	// re-hash of the winning nonce below catches a change to it.
	h := sha256.New()
	state := h.(interface {
		encoding.BinaryAppender
		encoding.BinaryUnmarshaler
	})
	whole := len(prefix) &^ (sha256.BlockSize - 1)
	h.Write(prefix[:whole]) // sha256 never returns an error
	// The saved state and the state read back per try share one buffer
	// (it escapes through the interface calls); the final block(s) —
	// tail (< 64 B) ‖ nonce ‖ 0x80 ‖ 0s ‖ bit length — stay on the stack.
	var states [2 * stateSize]byte
	mid, err := state.AppendBinary(states[:0:stateSize])
	if err != nil || len(mid) != stateSize {
		return 0, digest.Digest{}, fmt.Errorf("pow: saving hash state: %d bytes, %v", len(mid), err)
	}
	readback := states[stateSize:stateSize]
	var pad [2 * sha256.BlockSize]byte
	tail := prefix[whole:]
	final := pad[:]
	if len(tail)+NonceSize+1+8 <= sha256.BlockSize {
		final = pad[:sha256.BlockSize]
	}
	copy(final, tail)
	nonce := final[len(tail) : len(tail)+NonceSize]
	final[len(tail)+NonceSize] = 0x80
	binary.BigEndian.PutUint64(final[len(final)-8:], uint64(len(prefix)+NonceSize)*8)
	for i := uint64(0); i < maxTries; i++ {
		if err := state.UnmarshalBinary(mid); err != nil {
			return 0, digest.Digest{}, fmt.Errorf("pow: restoring hash state: %w", err)
		}
		binary.LittleEndian.PutUint32(nonce, uint32(i))
		h.Write(final)
		st, _ := state.AppendBinary(readback)
		d := digest.Digest(st[stateIDSize : stateIDSize+digest.Size])
		if !Meets(d, diff) {
			continue
		}
		if want := digest.Sum(prefix, nonce); d != want {
			return 0, digest.Digest{}, fmt.Errorf("pow: padded grind gives %s for nonce %d, SHA-256 gives %s", d, i, want)
		}
		return uint32(i), d, nil
	}
	return 0, digest.Digest{}, fmt.Errorf("%w: difficulty %d after %d tries", ErrExhausted, diff, maxTries)
}

// The layout of crypto/sha256's marshalled state: identifier, chaining
// value, one block of buffered input, length.
const (
	stateIDSize = 4
	stateSize   = stateIDSize + digest.Size + sha256.BlockSize + 8
)

// VerifyPrefix checks that nonce solves the puzzle for prefix at diff.
func VerifyPrefix(prefix []byte, nonce uint32, diff Difficulty) bool {
	return Meets(digest.Sum(AppendNonce(prefix, nonce)), diff)
}
