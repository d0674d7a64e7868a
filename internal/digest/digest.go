// Package digest provides the 256-bit hash primitive used throughout 2LDAG.
//
// The paper (Sec. III-B) fixes the hash size f_H to 256 bits and uses a
// single hash function H(.) for block-header digests, proof-of-work
// preimages and signature preimages. This package pins H to SHA-256 and
// wraps it in a comparable value type so digests can key maps and be
// copied without aliasing.
package digest

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
)

// Size is the digest length in bytes (f_H = 256 bits in the paper).
const Size = sha256.Size

// Bits is the digest length in bits.
const Bits = Size * 8

// ErrBadHex reports that a hex string cannot be decoded into a Digest.
var ErrBadHex = errors.New("digest: malformed hex digest")

// Digest is a 256-bit SHA-256 hash value. The zero value is the all-zero
// digest, which never results from hashing data and therefore doubles as
// a "no digest" sentinel (see IsZero).
type Digest [Size]byte

// Sum hashes the concatenation of parts and returns the digest.
func Sum(parts ...[]byte) Digest {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p) // sha256 never returns an error
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// FromHex parses a 64-character hex string into a Digest.
func FromHex(s string) (Digest, error) {
	var d Digest
	if len(s) != Size*2 {
		return d, fmt.Errorf("%w: length %d, want %d", ErrBadHex, len(s), Size*2)
	}
	if _, err := hex.Decode(d[:], []byte(s)); err != nil {
		return d, fmt.Errorf("%w: %v", ErrBadHex, err)
	}
	return d, nil
}

// Hex returns the full lowercase hex encoding.
func (d Digest) Hex() string {
	return hex.EncodeToString(d[:])
}

// Short returns the first 8 hex characters, for logs and error messages.
func (d Digest) Short() string {
	return hex.EncodeToString(d[:4])
}

// String implements fmt.Stringer with the short form.
func (d Digest) String() string {
	return d.Short()
}

// IsZero reports whether d is the all-zero sentinel digest.
func (d Digest) IsZero() bool {
	return d == Digest{}
}

// LeadingZeroBits counts the number of leading zero bits, interpreting the
// digest as a big-endian 256-bit integer. Used by the proof-of-work check
// (paper Eq. 5): requiring k leading zeros is equivalent to requiring the
// digest value to be at most 2^(256-k)-1.
func (d Digest) LeadingZeroBits() int {
	n := 0
	for _, b := range d {
		if b == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(b)
		break
	}
	return n
}
