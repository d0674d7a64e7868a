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
// SearchPrefix absorbs those once. It also builds the message's final
// block(s) once, padded per FIPS 180-4 §5.1.1 — the prefix's unaligned
// tail ‖ nonce ‖ 0x80 ‖ zeros ‖ the message's bit length — so only the
// nonce bytes change from try to try, and after the padded final block
// the chaining value is the digest: no Sum runs.
//
// Nonces are ground in pairs, nonce i in lane A and i+1 in lane B, each
// lane with its own final block(s). On amd64 CPUs with SHA-NI, SSSE3
// and SSE4.1 (CPUID decides, once) one assembly pass compresses both
// lanes with their SHA256RNDS2 chains interleaved, so each hides the
// other's latency, and the midstate is absorbed by the same kernel's
// one-lane block function: the search allocates nothing. Elsewhere
// each lane restores crypto/sha256 from the saved midstate, writes its
// final block(s) and reads the chaining value back through the hash's
// documented state marshalling. Either way lane A's try is tested
// before lane B's, so the smallest-nonce rule holds, and the preimage
// is byte for byte the one VerifyPrefix hashes whole, so the digest,
// the difficulty test — and with them every sealed header — are
// unchanged; the winning nonce is re-hashed the plain way once, and a
// disagreement is returned as an error.
package pow

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/bits"

	"github.com/twoldag/twoldag/internal/digest"
)

// Difficulty is the required number of leading zero bits (0..=256).
// The zero value accepts every digest, which is useful in tests.
type Difficulty uint8

// DefaultDifficulty keeps nonce search to ~256 SHA-256 compressions,
// about 15 µs on a 2 GHz Xeon with SHA-NI — "found quickly, e.g. in
// seconds" on an IoT-class device per the paper. It prices a seal; it
// throttles no receiver.
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
	var l lanes
	if err := l.absorb(prefix[:len(prefix)&^(sha256.BlockSize-1)]); err != nil {
		return 0, digest.Digest{}, err
	}
	var padA, padB [2 * sha256.BlockSize]byte
	finalA, nonceA := padFinal(&padA, prefix)
	finalB, nonceB := padFinal(&padB, prefix)
	var da, db [8]uint32
	for i := uint64(0); i < maxTries; i += 2 {
		binary.LittleEndian.PutUint32(nonceA, uint32(i))
		binary.LittleEndian.PutUint32(nonceB, uint32(i+1))
		if err := l.compress(finalA, finalB, &da, &db); err != nil {
			return 0, digest.Digest{}, err
		}
		if meets(&da, diff) {
			return found(prefix, uint32(i), &da)
		}
		if i+1 < maxTries && meets(&db, diff) {
			return found(prefix, uint32(i+1), &db)
		}
	}
	return 0, digest.Digest{}, fmt.Errorf("%w: difficulty %d after %d tries", ErrExhausted, diff, maxTries)
}

// padFinal writes into pad the message's final block(s) — prefix's
// unaligned tail ‖ nonce ‖ 0x80 ‖ zeros ‖ the bit length of
// prefix ‖ nonce — and returns them and the nonce's four bytes in them.
func padFinal(pad *[2 * sha256.BlockSize]byte, prefix []byte) (final, nonce []byte) {
	tail := prefix[len(prefix)&^(sha256.BlockSize-1):]
	final = pad[:]
	if len(tail)+NonceSize+1+8 <= sha256.BlockSize {
		final = pad[:sha256.BlockSize]
	}
	copy(final, tail)
	final[len(tail)+NonceSize] = 0x80
	binary.BigEndian.PutUint64(final[len(final)-8:], uint64(len(prefix)+NonceSize)*8)
	return final, final[len(tail) : len(tail)+NonceSize]
}

// meets is Meets on a digest still held as SHA-256's words h0..h7: the
// first word alone decides every difficulty up to 32.
func meets(h *[8]uint32, diff Difficulty) bool {
	need := int(diff)
	for _, w := range h {
		if need <= 32 {
			return bits.LeadingZeros32(w) >= need
		}
		if w != 0 {
			return false
		}
		need -= 32
	}
	return true
}

// found re-hashes prefix ‖ nonce the plain way and returns the search's
// result, or an error if a lane's digest h disagrees.
func found(prefix []byte, nonce uint32, h *[8]uint32) (uint32, digest.Digest, error) {
	var d digest.Digest
	for i, w := range h {
		binary.BigEndian.PutUint32(d[4*i:], w)
	}
	var n [NonceSize]byte
	binary.LittleEndian.PutUint32(n[:], nonce)
	if want := digest.Sum(prefix, n[:]); d != want {
		return 0, digest.Digest{}, fmt.Errorf("pow: padded grind gives %s for nonce %d, SHA-256 gives %s", d, nonce, want)
	}
	return nonce, d, nil
}

// lanes compresses the final block(s) of a nonce pair from the
// prefix's midstate: with the SHA-NI kernel where useKernel holds, and
// otherwise with the portable lane, crypto/sha256 restored from and
// read back through its marshalled state.
type lanes struct {
	mid [8]uint32 // the kernel's midstate

	// The portable lane's hasher and one buffer: the saved midstate,
	// the state read back per try and a copy of the final block(s),
	// which an interface call would otherwise move to the heap.
	h               hash.Hash
	state           marshaler
	saved, readback []byte
	final           []byte
}

type marshaler interface {
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// The layout of crypto/sha256's marshalled state: identifier, chaining
// value, one block of buffered input, length. crypto/sha256 documents
// that its Hash marshals its state, but the layout is its own; the
// re-hash of the winning nonce catches a change to it.
const (
	stateIDSize = 4
	stateSize   = stateIDSize + digest.Size + sha256.BlockSize + 8
)

// absorb computes the midstate after whole, a run of 64-byte blocks.
func (l *lanes) absorb(whole []byte) error {
	if useKernel {
		l.mid = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
		blockSHANI(&l.mid, whole)
		return nil
	}
	h := sha256.New()
	h.Write(whole) // sha256 never returns an error
	l.h, l.state = h, h.(marshaler)
	buf := make([]byte, 2*stateSize+2*sha256.BlockSize)
	saved, err := l.state.AppendBinary(buf[:0:stateSize])
	if err != nil || len(saved) != stateSize {
		return fmt.Errorf("pow: saving hash state: %d bytes, %v", len(saved), err)
	}
	l.saved, l.readback, l.final = saved, buf[stateSize:stateSize:2*stateSize], buf[2*stateSize:]
	return nil
}

// compress runs lane A's final block(s) a into da and lane B's b into
// db.
func (l *lanes) compress(a, b []byte, da, db *[8]uint32) error {
	if useKernel {
		block2SHANI(&l.mid, a, b, da, db)
		return nil
	}
	if err := l.portable(a, da); err != nil {
		return err
	}
	return l.portable(b, db)
}

// portable restores the midstate, writes final — the last compression —
// and reads the chaining value back into d.
func (l *lanes) portable(final []byte, d *[8]uint32) error {
	if err := l.state.UnmarshalBinary(l.saved); err != nil {
		return fmt.Errorf("pow: restoring hash state: %w", err)
	}
	l.h.Write(l.final[:copy(l.final, final)])
	st, _ := l.state.AppendBinary(l.readback)
	for i := range d {
		d[i] = binary.BigEndian.Uint32(st[stateIDSize+4*i:])
	}
	return nil
}

// VerifyPrefix checks that nonce solves the puzzle for prefix at diff.
func VerifyPrefix(prefix []byte, nonce uint32, diff Difficulty) bool {
	return Meets(digest.Sum(AppendNonce(prefix, nonce)), diff)
}
