package block

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Codec limits protecting decoders from hostile inputs.
const (
	// MaxDigestRefs bounds the Δ field; a node has at most |V|-1
	// neighbors plus its own previous digest, and 2LDAG networks are
	// IoT-scale.
	MaxDigestRefs = 4096
	// MaxSignatureLen bounds the signature field.
	MaxSignatureLen = 512
	// MaxBodyLen bounds decoded body sizes (16 MiB).
	MaxBodyLen = 16 << 20
	// MaxEncodedLen is the longest block encoding Decode accepts: the
	// longest header (version, time, origin, seq, root, MaxDigestRefs Δ
	// entries, nonce, a MaxSignatureLen signature, each with its length
	// prefix), the body's length prefix and a MaxBodyLen body.
	MaxEncodedLen = 4*4 + digest.Size + 4 + MaxDigestRefs*(4+digest.Size) + 4 + 4 + MaxSignatureLen + 4 + MaxBodyLen
)

// Decoding errors.
var (
	ErrTruncated  = errors.New("block: truncated encoding")
	ErrOversized  = errors.New("block: field exceeds decoder limit")
	ErrTrailing   = errors.New("block: trailing bytes after encoding")
	ErrBadEncoded = errors.New("block: malformed encoding")
)

func appendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendDigestRefs(b []byte, refs []DigestRef) []byte {
	for _, r := range refs {
		b = appendUint32(b, uint32(r.Node))
		b = append(b, r.Digest[:]...)
	}
	return b
}

// AppendEncodeHeader appends h's wire form, in full (including
// signature), to b and returns the extended slice, so a caller that
// already owns a buffer (a transport frame, a WAL record) encodes in
// place.
func AppendEncodeHeader(b []byte, h *Header) []byte {
	b = appendUint32(b, h.Version)
	b = appendUint32(b, h.Time)
	b = appendUint32(b, uint32(h.Origin))
	b = appendUint32(b, h.Seq)
	b = append(b, h.Root[:]...)
	b = appendUint32(b, uint32(len(h.Digests)))
	b = appendDigestRefs(b, h.Digests)
	b = appendUint32(b, h.Nonce)
	b = appendUint32(b, uint32(len(h.Signature)))
	b = append(b, h.Signature...)
	return b
}

func headerWireSize(h *Header) int {
	return 4*6 + digest.Size + len(h.Digests)*(4+digest.Size) + 4 + len(h.Signature)
}

// WireSize returns the exact number of bytes AppendEncodeHeader appends.
func (h *Header) WireSize() int {
	return headerWireSize(h)
}

// Encode serializes a full block (header then length-prefixed body).
func Encode(b *Block) []byte {
	return AppendEncode(make([]byte, 0, b.WireSize()), b)
}

// AppendEncode appends the bytes Encode produces to dst and returns the
// extended slice.
func AppendEncode(dst []byte, b *Block) []byte {
	dst = AppendEncodeHeader(dst, &b.Header)
	dst = appendUint32(dst, uint32(len(b.Body)))
	return append(dst, b.Body...)
}

// WireSize returns the exact number of bytes Encode produces.
func (b *Block) WireSize() int {
	return headerWireSize(&b.Header) + 4 + len(b.Body)
}

// EncodedOrigin reads the origin out of an encoded header or block
// (version, time, origin: the third word) without decoding the rest —
// how the write-ahead log tells whose block a record is.
func EncodedOrigin(enc []byte) (identity.NodeID, bool) {
	if len(enc) < 12 {
		return 0, false
	}
	return identity.NodeID(binary.LittleEndian.Uint32(enc[8:])), true
}

// reader is a bounds-checked cursor over an encoding.
type reader struct {
	buf []byte
	off int
}

func (r *reader) uint32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) digest() (digest.Digest, error) {
	raw, err := r.bytes(digest.Size)
	if err != nil {
		return digest.Digest{}, err
	}
	var d digest.Digest
	copy(d[:], raw)
	return d, nil
}

// EncodedHeaderLen returns the length of the header an encoding opens
// with — a header's encoding, or a block's (AppendEncode) — read from
// its Δ count and signature length without decoding it. ok is false
// when enc is too short to hold that header or a count is past the
// decoder's limits.
func EncodedHeaderLen(enc []byte) (n int, ok bool) {
	const refsAt = 4*4 + digest.Size // version, time, origin, seq, root
	if len(enc) < refsAt+4 {
		return 0, false
	}
	refs := binary.LittleEndian.Uint32(enc[refsAt:])
	if refs > MaxDigestRefs {
		return 0, false
	}
	n = refsAt + 4 + int(refs)*(4+digest.Size) + 4 // Δ, then the nonce
	if len(enc) < n+4 {
		return 0, false
	}
	sig := binary.LittleEndian.Uint32(enc[n:])
	if sig > MaxSignatureLen || len(enc)-n-4 < int(sig) {
		return 0, false
	}
	return n + 4 + int(sig), true
}

// EncodedContains is Header.Contains read off a header's encoding, one
// EncodedHeaderLen accepts, without decoding it.
func EncodedContains(enc []byte, d digest.Digest) bool {
	const refsAt = 4*4 + digest.Size
	if d.IsZero() || len(enc) < refsAt+4 {
		return false
	}
	refs := int(binary.LittleEndian.Uint32(enc[refsAt:]))
	for k, off := 0, refsAt+4; k < refs && off+4+digest.Size <= len(enc); k, off = k+1, off+4+digest.Size {
		if digest.Digest(enc[off+4:off+4+digest.Size]) == d {
			return true
		}
	}
	return false
}

// decodeHeader parses one header at the cursor into h, which must be
// zero but for room for Δ: Δ is copied out of the buffer, into h.Digests'
// backing array when it is long enough, and so is the signature unless
// shared is set, when it aliases the buffer.
func decodeHeader(r *reader, h *Header, shared bool) error {
	var err error
	if h.Version, err = r.uint32(); err != nil {
		return err
	}
	if h.Time, err = r.uint32(); err != nil {
		return err
	}
	origin, err := r.uint32()
	if err != nil {
		return err
	}
	h.Origin = identity.NodeID(origin)
	if h.Seq, err = r.uint32(); err != nil {
		return err
	}
	if h.Root, err = r.digest(); err != nil {
		return err
	}
	nRefs, err := r.uint32()
	if err != nil {
		return err
	}
	if nRefs > MaxDigestRefs {
		return fmt.Errorf("%w: %d digest refs", ErrOversized, nRefs)
	}
	if h.Digests != nil && cap(h.Digests) >= int(nRefs) {
		h.Digests = h.Digests[:nRefs]
	} else {
		h.Digests = make([]DigestRef, nRefs)
	}
	for i := range h.Digests {
		node, err := r.uint32()
		if err != nil {
			return err
		}
		d, err := r.digest()
		if err != nil {
			return err
		}
		h.Digests[i] = DigestRef{Node: identity.NodeID(node), Digest: d}
	}
	if h.Nonce, err = r.uint32(); err != nil {
		return err
	}
	sigLen, err := r.uint32()
	if err != nil {
		return err
	}
	if sigLen > MaxSignatureLen {
		return fmt.Errorf("%w: signature %d bytes", ErrOversized, sigLen)
	}
	sig, err := r.bytes(int(sigLen))
	if err != nil {
		return err
	}
	if shared {
		h.Signature = sig[:len(sig):len(sig)]
	} else {
		h.Signature = append([]byte(nil), sig...)
	}
	return nil
}

// DecodeHeader parses a header and rejects trailing bytes.
func DecodeHeader(buf []byte) (*Header, error) {
	r := reader{buf: buf}
	h := new(Header)
	if err := decodeHeader(&r, h, false); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoded, err)
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(buf)-r.off)
	}
	return h, nil
}

// Decode parses a full block and rejects trailing bytes. The block owns
// every byte it references; buf may be reused afterwards.
func Decode(buf []byte) (*Block, error) {
	b, err := DecodeOwned(buf)
	if err != nil {
		return nil, err
	}
	b.Body = append([]byte(nil), b.Body...)
	return b, nil
}

// DecodeOwned is Decode for a caller that hands buf over: the block's
// Body aliases buf instead of copying it out (header fields are still
// copied), so buf must be neither modified nor reused afterwards. It is
// how a received frame's private payload copy becomes the block body
// without a second copy.
func DecodeOwned(buf []byte) (*Block, error) { return decodeOwned(buf, new(Block), false) }

// DecodeShared is DecodeOwned with the signature aliasing buf as well
// and the header sealed: its hash is taken over the header's bytes in
// buf, which a header that decodes re-encodes to exactly. It is for a
// buffer read for this one block, which its body keeps alive anyway (a
// segment record read back for a Get): whoever keeps the header keeps
// buf.
func DecodeShared(buf []byte) (*Block, error) {
	b, err := decodeOwned(buf, new(Block), true)
	if err != nil {
		return nil, err
	}
	n := len(buf) - 4 - len(b.Body)
	b.Header.hash, b.Header.hashOK = digest.Sum(buf[:n]), true
	return b, nil
}

func decodeOwned(buf []byte, b *Block, shared bool) (*Block, error) {
	r := reader{buf: buf}
	if err := decodeHeader(&r, &b.Header, shared); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoded, err)
	}
	bodyLen, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoded, err)
	}
	if bodyLen > MaxBodyLen {
		return nil, fmt.Errorf("%w: body %d bytes", ErrOversized, bodyLen)
	}
	body, err := r.bytes(int(bodyLen))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoded, err)
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(buf)-r.off)
	}
	b.Body = body
	return b, nil
}
