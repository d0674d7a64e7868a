// Package wire defines the 2LDAG message vocabulary and its binary
// encoding. The protocol has exactly the message families the paper
// names (Sec. IV-D5): digest announcements (block generation,
// Sec. III-D), carried as DigestBatch frames — one per neighbor per
// flush, a one-digest frame being the paper's single broadcast —
// REQ_CHILD / RPY_CHILD (PoP, Sec. IV), plus the block retrieval pair
// a validator uses to fetch the verifier's full block (Algorithm 3
// line 2). Every message carries an anti-replay nonce and a
// correlation ID for request/response matching.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Kind discriminates message payloads. Enums start at 1 so the zero
// value is detectably invalid.
type Kind uint8

const (
	// KindDigestAnnounce carried H(b^h) to one neighbor. No node sends
	// it and nodes drop it unread — a one-digest DigestBatch carries the
	// same — but kind numbers are wire bytes, so the kind stays.
	KindDigestAnnounce Kind = iota + 1
	// KindReqChild asks a node for the oldest of its blocks whose Δ
	// contains Target.
	KindReqChild
	// KindRpyChild answers a ReqChild with an encoded header.
	KindRpyChild
	// KindGetBlock asks a block's origin for the full block.
	KindGetBlock
	// KindBlockResp answers a GetBlock with an encoded block.
	KindBlockResp
	// KindNotFound is a negative response to ReqChild or GetBlock.
	KindNotFound
	// KindDigestBatch carries every digest a node announces to one
	// neighbor in a single frame — one frame per (sender, receiver)
	// pair per flush instead of one per digest. The payload is the
	// concatenation of the digests in seal order (the length prefix of
	// the payload field frames the batch; the digest count is
	// len(Payload)/digest.Size).
	KindDigestBatch
	// KindDigestAck acknowledges an announcement frame back to its
	// sender: the Digest field (and, for batch acks, the echoed digest
	// concatenation in the payload) names what the receiver ingested.
	// Cross-process clusters use it to complete the submitter's
	// event-driven acknowledgement wait — in-process fabrics observe
	// the receiver's delivery events directly and never send it.
	KindDigestAck
	// KindHello announces a node's identity to a peer: its advertised
	// listen address, public key and — for dynamically joined nodes —
	// placement (anchor and position) so every peer replays the same
	// topology mutation. Sent as a request; the reply is a PeerList.
	KindHello
	// KindPeerList carries a membership snapshot: one entry per known
	// peer with liveness, address, key and placement. It answers Hello
	// (and the bootstrap discovery exchange); unsolicited pushes carry
	// correlation 0.
	KindPeerList
	// KindLeave is a graceful departure broadcast: peers mark the
	// sender dead immediately instead of waiting for the health
	// tracker to suspect it.
	KindLeave

	kindMax
)

// BootstrapID is the sentinel From a not-yet-placed joiner uses for
// the raw discovery exchange: it dials a member's listener, sends a
// Hello with From=BootstrapID, and the member replies with a PeerList
// on the same connection instead of routing the frame inbox-ward.
const BootstrapID identity.NodeID = 1<<32 - 1

// NoAnchor marks a Hello or PeerList entry whose node was part of the
// planned deployment (its placement comes from the shared topology
// generator, not a dynamic join).
const NoAnchor identity.NodeID = 1<<32 - 1

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindDigestAnnounce:
		return "DIGEST"
	case KindReqChild:
		return "REQ_CHILD"
	case KindRpyChild:
		return "RPY_CHILD"
	case KindGetBlock:
		return "GET_BLOCK"
	case KindBlockResp:
		return "BLOCK_RESP"
	case KindNotFound:
		return "NOT_FOUND"
	case KindDigestBatch:
		return "DIGEST_BATCH"
	case KindDigestAck:
		return "DIGEST_ACK"
	case KindHello:
		return "HELLO"
	case KindPeerList:
		return "PEER_LIST"
	case KindLeave:
		return "LEAVE"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Valid reports whether k is a known kind.
func (k Kind) Valid() bool { return k >= KindDigestAnnounce && k < kindMax }

// IsResponse reports whether the kind answers a prior request.
// DigestAck is deliberately not a response: it acknowledges an
// unsolicited announcement (correlation 0) and is handled by the
// node's message loop, not the RPC pending map.
func (k Kind) IsResponse() bool {
	return k == KindRpyChild || k == KindBlockResp || k == KindNotFound || k == KindPeerList
}

// Codec errors.
var (
	ErrBadKind    = errors.New("wire: unknown message kind")
	ErrTruncated  = errors.New("wire: truncated message")
	ErrOversized  = errors.New("wire: payload exceeds limit")
	ErrTrailing   = errors.New("wire: trailing bytes")
	ErrBadPayload = errors.New("wire: malformed payload")
)

// MaxPayload bounds payload sizes. It is sized for the longest of them,
// a BLOCK_RESP carrying the longest block the block codec decodes.
const MaxPayload = block.MaxEncodedLen

// Message is a single 2LDAG protocol message.
//
// The payload has one of two sources. A decoded message, and every
// sender-built kind except RpyChild and BlockResp, holds its payload
// bytes in Payload. NewRpyChild and NewBlockResp instead keep a
// reference to the sealed header or block they answer with and leave
// Payload nil: WireSize and AppendEncode write that header or block
// straight into the caller's buffer, so serving a block costs one copy
// into the frame instead of an intermediate encoding. A reply whose
// header or block is already in its wire form — read back from a
// segment record — carries those bytes in Payload
// (NewRpyChildEncoded, NewBlockRespEncoded), copied into the frame as
// they stand. Sealed headers and blocks are immutable (package block),
// and so are the encodings handed over, so the bytes such a message
// encodes to never change — a send that a fault plan delays or
// duplicates, or a caller repeats, produces the identical frame. To
// read a sender-built reply's payload, Decode its encoding.
type Message struct {
	Kind Kind
	From identity.NodeID
	To   identity.NodeID
	// Corr correlates responses with requests (0 = unsolicited).
	Corr uint64
	// Nonce is the anti-replay nonce of Sec. IV-D5.
	Nonce uint64

	// Digest is the announced digest (DigestAnnounce) or the PoP target
	// H(b^h_v,t) (ReqChild).
	Digest digest.Digest
	// Ref identifies the requested block (GetBlock).
	Ref block.Ref
	// Payload carries an encoded header (RpyChild) or block (BlockResp),
	// a digest run (DigestBatch, DigestAck) or a directory record
	// (Hello, PeerList). Nil on an RpyChild or BlockResp built from a
	// header or block, whose payload is encoded from hdr or blk.
	Payload []byte

	// hdr and blk are the lazy payload source of a sender-built RpyChild
	// and BlockResp: at most one is set, and Payload is nil when one is.
	hdr *block.Header
	blk *block.Block
}

// NewDigestAnnounce builds the digest broadcast of Sec. III-D.
func NewDigestAnnounce(from, to identity.NodeID, d digest.Digest, nonce uint64) *Message {
	return &Message{Kind: KindDigestAnnounce, From: from, To: to, Digest: d, Nonce: nonce}
}

// NewDigestBatch builds one announcement frame carrying every digest
// from sealed for neighbor to, in seal order. The Digest field holds
// the newest digest (the one that ends up in A_i), so a batch of one
// is a DigestAnnounce plus the batch framing.
func NewDigestBatch(from, to identity.NodeID, ds []digest.Digest, nonce uint64) *Message {
	payload := make([]byte, 0, len(ds)*digest.Size)
	for i := range ds {
		payload = append(payload, ds[i][:]...)
	}
	m := &Message{Kind: KindDigestBatch, From: from, To: to, Nonce: nonce, Payload: payload}
	if len(ds) > 0 {
		m.Digest = ds[len(ds)-1]
	}
	return m
}

// NewReqChild builds a REQ_CHILD for the PoP target digest.
func NewReqChild(from, to identity.NodeID, target digest.Digest, corr, nonce uint64) *Message {
	return &Message{Kind: KindReqChild, From: from, To: to, Digest: target, Corr: corr, Nonce: nonce}
}

// NewRpyChild answers req with the sealed header h, which is encoded
// when the message is (see Message) and must not be mutated.
func NewRpyChild(req *Message, h *block.Header) *Message {
	return &Message{
		Kind: KindRpyChild, From: req.To, To: req.From,
		Corr: req.Corr, Nonce: req.Nonce, hdr: h,
	}
}

// NewRpyChildEncoded answers req with a header's encoding, enc
// (block.AppendEncodeHeader's bytes, as a segment record holds them),
// carried as the payload as it stands. enc must not be mutated.
func NewRpyChildEncoded(req *Message, enc []byte) *Message {
	return &Message{
		Kind: KindRpyChild, From: req.To, To: req.From,
		Corr: req.Corr, Nonce: req.Nonce, Payload: enc,
	}
}

// NewGetBlock builds a full-block retrieval request.
func NewGetBlock(from, to identity.NodeID, ref block.Ref, corr, nonce uint64) *Message {
	return &Message{Kind: KindGetBlock, From: from, To: to, Ref: ref, Corr: corr, Nonce: nonce}
}

// NewBlockResp answers req with the sealed block b, which is encoded
// when the message is (see Message) and must not be mutated.
func NewBlockResp(req *Message, b *block.Block) *Message {
	return &Message{
		Kind: KindBlockResp, From: req.To, To: req.From,
		Corr: req.Corr, Nonce: req.Nonce, blk: b,
	}
}

// NewBlockRespEncoded answers req with a block's encoding, enc
// (block.AppendEncode's bytes: a segment record's payload), carried as
// the payload as it stands. enc must not be mutated.
func NewBlockRespEncoded(req *Message, enc []byte) *Message {
	return &Message{
		Kind: KindBlockResp, From: req.To, To: req.From,
		Corr: req.Corr, Nonce: req.Nonce, Payload: enc,
	}
}

// NewNotFound answers req negatively.
func NewNotFound(req *Message) *Message {
	return &Message{Kind: KindNotFound, From: req.To, To: req.From, Corr: req.Corr, Nonce: req.Nonce}
}

// NewDigestAck acknowledges an ingested announcement frame back to its
// sender, echoing the Digest field and — for DigestBatch frames — the
// digest concatenation, so the sender can resolve its acknowledgement
// wait per carried digest. Receivers ack duplicates too: a lost ack
// followed by a retried announcement must still converge.
func NewDigestAck(req *Message) *Message {
	m := &Message{Kind: KindDigestAck, From: req.To, To: req.From, Nonce: req.Nonce, Digest: req.Digest}
	if req.Kind == KindDigestBatch && len(req.Payload) > 0 {
		m.Payload = append([]byte(nil), req.Payload...)
	}
	return m
}

// DecodeDigestAckPayload parses the digests a batch ack echoes, in
// seal order. An ack with an empty payload (the ack of a
// DigestAnnounce frame) returns nil: it names no digest a node
// resolves.
func (m *Message) DecodeDigestAckPayload() ([]digest.Digest, error) {
	if m.Kind != KindDigestAck {
		return nil, fmt.Errorf("%w: %v carries no digest ack", ErrBadPayload, m.Kind)
	}
	if len(m.Payload) == 0 {
		return nil, nil
	}
	return decodeDigestRun(m.Payload)
}

// decodeDigestRun parses a digest concatenation.
func decodeDigestRun(payload []byte) ([]digest.Digest, error) {
	if len(payload)%digest.Size != 0 {
		return nil, fmt.Errorf("%w: digest run of %d bytes", ErrBadPayload, len(payload))
	}
	ds := make([]digest.Digest, len(payload)/digest.Size)
	for i := range ds {
		copy(ds[i][:], payload[i*digest.Size:])
	}
	return ds, nil
}

// Directory payload limits: a dial address is a host:port string, a
// public key is an Ed25519 key today (the length byte leaves room for
// other schemes).
const (
	maxAddrLen = 512
	maxKeyLen  = 255
)

// HelloInfo is the payload of a Hello: who the sender is and, when it
// joined dynamically, where the shared topology must place it.
type HelloInfo struct {
	// Addr is the sender's advertised dial address.
	Addr string
	// PubKey is the sender's public signing key.
	PubKey []byte
	// Anchor is the live node the sender re-anchored to when it joined
	// dynamically; NoAnchor for planned members.
	Anchor identity.NodeID
	// X, Y is the sender's position in the radio plane (meaningful for
	// dynamic joiners; planned members echo their generated position).
	X, Y float64
}

// PeerEntry is one PeerList membership record.
type PeerEntry struct {
	ID   identity.NodeID
	Live bool
	// Anchor and X, Y mirror HelloInfo: NoAnchor marks a planned
	// member whose placement the generator dictates.
	Anchor identity.NodeID
	X, Y   float64
	Addr   string
	PubKey []byte
}

// appendHelloInfo encodes one directory record. Hello payloads and
// PeerList entries share the layout; PeerList entries prefix it with
// the peer ID and liveness.
func appendHelloInfo(buf []byte, h *HelloInfo) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Anchor))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Y))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.Addr)))
	buf = append(buf, h.Addr...)
	buf = append(buf, byte(len(h.PubKey)))
	buf = append(buf, h.PubKey...)
	return buf
}

// readHelloInfo decodes one directory record at *off, advancing it.
func readHelloInfo(buf []byte, off *int, h *HelloInfo) error {
	if len(buf)-*off < 4+8+8+2 {
		return fmt.Errorf("%w: directory record", ErrTruncated)
	}
	h.Anchor = identity.NodeID(binary.LittleEndian.Uint32(buf[*off:]))
	*off += 4
	h.X = math.Float64frombits(binary.LittleEndian.Uint64(buf[*off:]))
	*off += 8
	h.Y = math.Float64frombits(binary.LittleEndian.Uint64(buf[*off:]))
	*off += 8
	alen := int(binary.LittleEndian.Uint16(buf[*off:]))
	*off += 2
	if alen > maxAddrLen {
		return fmt.Errorf("%w: address of %d bytes", ErrBadPayload, alen)
	}
	if len(buf)-*off < alen+1 {
		return fmt.Errorf("%w: directory record", ErrTruncated)
	}
	h.Addr = string(buf[*off : *off+alen])
	*off += alen
	klen := int(buf[*off])
	*off++
	if len(buf)-*off < klen {
		return fmt.Errorf("%w: directory record", ErrTruncated)
	}
	h.PubKey = append([]byte(nil), buf[*off:*off+klen]...)
	*off += klen
	return nil
}

// NewHello builds the identity announcement of the peer-directory
// exchange. As a request it expects a PeerList reply; the bootstrap
// discovery variant uses From=BootstrapID over a raw connection.
func NewHello(from, to identity.NodeID, info HelloInfo, corr, nonce uint64) *Message {
	return &Message{
		Kind: KindHello, From: from, To: to, Corr: corr, Nonce: nonce,
		Payload: appendHelloInfo(make([]byte, 0, 4+8+8+2+len(info.Addr)+1+len(info.PubKey)), &info),
	}
}

// DecodeHelloPayload parses a Hello's identity record.
func (m *Message) DecodeHelloPayload() (HelloInfo, error) {
	if m.Kind != KindHello {
		return HelloInfo{}, fmt.Errorf("%w: %v carries no hello", ErrBadPayload, m.Kind)
	}
	var h HelloInfo
	off := 0
	if err := readHelloInfo(m.Payload, &off, &h); err != nil {
		return HelloInfo{}, err
	}
	if off != len(m.Payload) {
		return HelloInfo{}, fmt.Errorf("%w: %d bytes after hello", ErrTrailing, len(m.Payload)-off)
	}
	return h, nil
}

// NewPeerList answers req (a Hello) with a membership snapshot.
func NewPeerList(req *Message, entries []PeerEntry) *Message {
	return &Message{
		Kind: KindPeerList, From: req.To, To: req.From,
		Corr: req.Corr, Nonce: req.Nonce, Payload: encodePeerEntries(entries),
	}
}

func encodePeerEntries(entries []PeerEntry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ID))
		if e.Live {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendHelloInfo(buf, &HelloInfo{Addr: e.Addr, PubKey: e.PubKey, Anchor: e.Anchor, X: e.X, Y: e.Y})
	}
	return buf
}

// DecodePeerListPayload parses a PeerList's membership entries, in the
// order the sender encoded them. Everything is copied out of the
// payload, so the result outlives the message buffer.
func (m *Message) DecodePeerListPayload() ([]PeerEntry, error) {
	if m.Kind != KindPeerList {
		return nil, fmt.Errorf("%w: %v carries no peer list", ErrBadPayload, m.Kind)
	}
	if len(m.Payload) < 4 {
		return nil, fmt.Errorf("%w: peer list", ErrTruncated)
	}
	count := int(binary.LittleEndian.Uint32(m.Payload))
	// Each entry is at least ID + live + the fixed record prefix; an
	// absurd count is rejected before any allocation.
	const minEntry = 4 + 1 + 4 + 8 + 8 + 2 + 1
	if count < 0 || count > (len(m.Payload)-4)/minEntry {
		return nil, fmt.Errorf("%w: peer list claims %d entries in %d bytes", ErrBadPayload, count, len(m.Payload))
	}
	entries := make([]PeerEntry, count)
	off := 4
	for i := range entries {
		if len(m.Payload)-off < 5 {
			return nil, fmt.Errorf("%w: peer list entry %d", ErrTruncated, i)
		}
		entries[i].ID = identity.NodeID(binary.LittleEndian.Uint32(m.Payload[off:]))
		off += 4
		switch m.Payload[off] {
		case 0:
		case 1:
			entries[i].Live = true
		default:
			return nil, fmt.Errorf("%w: peer list liveness %d", ErrBadPayload, m.Payload[off])
		}
		off++
		var h HelloInfo
		if err := readHelloInfo(m.Payload, &off, &h); err != nil {
			return nil, err
		}
		entries[i].Anchor, entries[i].X, entries[i].Y = h.Anchor, h.X, h.Y
		entries[i].Addr, entries[i].PubKey = h.Addr, h.PubKey
	}
	if off != len(m.Payload) {
		return nil, fmt.Errorf("%w: %d bytes after peer list", ErrTrailing, len(m.Payload)-off)
	}
	return entries, nil
}

// NewLeave builds the graceful departure broadcast.
func NewLeave(from, to identity.NodeID, nonce uint64) *Message {
	return &Message{Kind: KindLeave, From: from, To: to, Nonce: nonce}
}

// DecodeDigestBatchPayload parses the digests carried by a
// DigestBatch, in seal order. The digests are copied out of the
// payload, so the returned slice outlives the message buffer.
func (m *Message) DecodeDigestBatchPayload() ([]digest.Digest, error) {
	if m.Kind != KindDigestBatch {
		return nil, fmt.Errorf("%w: %v carries no digest batch", ErrBadPayload, m.Kind)
	}
	return decodeDigestRun(m.Payload)
}

// DecodeHeaderPayload parses the header carried by a RpyChild.
func (m *Message) DecodeHeaderPayload() (*block.Header, error) {
	if m.Kind != KindRpyChild {
		return nil, fmt.Errorf("%w: %v carries no header", ErrBadPayload, m.Kind)
	}
	return block.DecodeHeader(m.Payload)
}

// DecodeBlockPayload parses the block carried by a BlockResp. The
// block's body aliases m.Payload — Decode already gave the message a
// private copy of the frame's payload, so a second copy would buy
// nothing — and the payload must not be modified afterwards.
func (m *Message) DecodeBlockPayload() (*block.Block, error) {
	if m.Kind != KindBlockResp {
		return nil, fmt.Errorf("%w: %v carries no block", ErrBadPayload, m.Kind)
	}
	return block.DecodeOwned(m.Payload)
}

// Encode serializes the message into a fresh buffer.
func (m *Message) Encode() []byte {
	return m.AppendEncode(make([]byte, 0, m.WireSize()))
}

// AppendEncode serializes the message onto buf and returns the
// extended slice, letting transports reuse one encode buffer per
// connection instead of allocating per message.
func (m *Message) AppendEncode(buf []byte) []byte {
	buf = append(buf, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.To))
	buf = binary.LittleEndian.AppendUint64(buf, m.Corr)
	buf = binary.LittleEndian.AppendUint64(buf, m.Nonce)
	buf = append(buf, m.Digest[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Ref.Node))
	buf = binary.LittleEndian.AppendUint32(buf, m.Ref.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.payloadSize()))
	switch {
	case m.blk != nil:
		return block.AppendEncode(buf, m.blk)
	case m.hdr != nil:
		return block.AppendEncodeHeader(buf, m.hdr)
	}
	return append(buf, m.Payload...)
}

// payloadSize is the encoded payload length, whichever source it has.
func (m *Message) payloadSize() int {
	switch {
	case m.blk != nil:
		return m.blk.WireSize()
	case m.hdr != nil:
		return m.hdr.WireSize()
	}
	return len(m.Payload)
}

// WireSize is the exact encoded size in bytes.
func (m *Message) WireSize() int {
	return 1 + 4 + 4 + 8 + 8 + digest.Size + 4 + 4 + 4 + m.payloadSize()
}

// Decode parses an encoded message, rejecting trailing bytes.
func Decode(buf []byte) (*Message, error) {
	const fixed = 1 + 4 + 4 + 8 + 8 + digest.Size + 4 + 4 + 4
	if len(buf) < fixed {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	var m Message
	m.Kind = Kind(buf[0])
	if !m.Kind.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, buf[0])
	}
	off := 1
	m.From = identity.NodeID(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	m.To = identity.NodeID(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	m.Corr = binary.LittleEndian.Uint64(buf[off:])
	off += 8
	m.Nonce = binary.LittleEndian.Uint64(buf[off:])
	off += 8
	copy(m.Digest[:], buf[off:])
	off += digest.Size
	m.Ref.Node = identity.NodeID(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	m.Ref.Seq = binary.LittleEndian.Uint32(buf[off:])
	off += 4
	plen := binary.LittleEndian.Uint32(buf[off:])
	off += 4
	if plen > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d", ErrOversized, plen)
	}
	if off+int(plen) > len(buf) {
		return nil, fmt.Errorf("%w: payload", ErrTruncated)
	}
	m.Payload = append([]byte(nil), buf[off:off+int(plen)]...)
	off += int(plen)
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(buf)-off)
	}
	return &m, nil
}
