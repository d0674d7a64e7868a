package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

func sampleHeader() *block.Header {
	key := identity.Deterministic(3, 3)
	p := block.DefaultParams()
	p.Difficulty = 2
	b, err := p.Build(key, 1, 1, []byte("payload"), []block.DigestRef{
		{Node: 3, Digest: digest.Sum([]byte("prev"))},
		{Node: 4, Digest: digest.Sum([]byte("nb"))},
	})
	if err != nil {
		panic(err)
	}
	return &b.Header
}

// TestBlockRespCarriesTheLongestBlock: a block at every limit a sealer
// meets — a MaxBodyLen body and MaxDigestRefs Δ entries — encodes within
// block.MaxEncodedLen, and its BLOCK_RESP round-trips the codec, so an
// audit can fetch any block the ledger accepts.
func TestBlockRespCarriesTheLongestBlock(t *testing.T) {
	key := identity.Deterministic(3, 3)
	p := block.DefaultParams()
	p.Difficulty = 0
	refs := make([]block.DigestRef, block.MaxDigestRefs)
	for i := range refs {
		refs[i] = block.DigestRef{Node: identity.NodeID(i), Digest: digest.Sum([]byte{byte(i), byte(i >> 8)})}
	}
	b, err := p.Build(key, 1, 1, make([]byte, block.MaxBodyLen), refs)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.WireSize(); n > block.MaxEncodedLen {
		t.Fatalf("the block encodes to %d bytes, past MaxEncodedLen %d", n, block.MaxEncodedLen)
	}
	resp := NewBlockResp(NewGetBlock(4, 3, b.Header.Ref(), 7, 9), b)
	got, err := Decode(resp.Encode())
	if err != nil {
		t.Fatalf("Decode of the BLOCK_RESP: %v", err)
	}
	back, err := block.Decode(got.Payload)
	if err != nil {
		t.Fatalf("the BLOCK_RESP's block: %v", err)
	}
	if back.Header.Hash() != b.Header.Hash() || !bytes.Equal(back.Body, b.Body) {
		t.Fatal("the BLOCK_RESP's block differs from the one sent")
	}
}

// messagesEqual compares the envelope fields directly and the payload
// through the encoding: a sender-built RpyChild or BlockResp carries
// its header or block by reference and has no Payload bytes to compare.
func messagesEqual(a, b *Message) bool {
	return a.Kind == b.Kind && a.From == b.From && a.To == b.To &&
		a.Corr == b.Corr && a.Nonce == b.Nonce && a.Digest == b.Digest &&
		a.Ref == b.Ref && bytes.Equal(a.Encode(), b.Encode())
}

func TestRoundTripAllKinds(t *testing.T) {
	h := sampleHeader()
	blk := &block.Block{Header: *h, Body: []byte("payload")}
	req := NewReqChild(1, 2, digest.Sum([]byte("t")), 7, 9)
	get := NewGetBlock(1, 2, block.Ref{Node: 2, Seq: 5}, 8, 10)
	hello := NewHello(9, 1, HelloInfo{Addr: "127.0.0.1:0", PubKey: []byte{1, 2, 3}, Anchor: 4, X: 1.5, Y: -2.5}, 12, 13)
	msgs := []*Message{
		NewDigestAnnounce(1, 2, digest.Sum([]byte("d")), 3),
		NewDigestBatch(1, 2, []digest.Digest{digest.Sum([]byte("a")), digest.Sum([]byte("b"))}, 4),
		req,
		NewRpyChild(req, h),
		get,
		NewBlockResp(get, blk),
		NewNotFound(req),
		NewDigestAck(NewDigestBatch(1, 2, []digest.Digest{digest.Sum([]byte("a"))}, 4)),
		hello,
		NewPeerList(hello, []PeerEntry{{ID: 1, Live: true, Anchor: NoAnchor, Addr: "h:1", PubKey: []byte{9}}}),
		NewPeerList(hello, nil),
		NewLeave(1, 2, 6),
	}
	for _, m := range msgs {
		enc := m.Encode()
		if len(enc) != m.WireSize() {
			t.Fatalf("%v: WireSize %d != %d", m.Kind, m.WireSize(), len(enc))
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: Decode: %v", m.Kind, err)
		}
		if !messagesEqual(m, got) {
			t.Fatalf("%v: round trip mismatch", m.Kind)
		}
	}
}

func TestResponseConstructorsSwapEndpoints(t *testing.T) {
	req := NewReqChild(10, 20, digest.Sum([]byte("x")), 55, 66)
	rpy := NewRpyChild(req, sampleHeader())
	if rpy.From != 20 || rpy.To != 10 || rpy.Corr != 55 || rpy.Nonce != 66 {
		t.Fatal("RpyChild endpoints/corr wrong")
	}
	nf := NewNotFound(req)
	if nf.From != 20 || nf.To != 10 || nf.Corr != 55 {
		t.Fatal("NotFound endpoints wrong")
	}
}

func TestDecodePayloads(t *testing.T) {
	h := sampleHeader()
	req := NewReqChild(1, 2, digest.Sum([]byte("t")), 1, 1)
	// The payload decoders read a received message: a sender-built reply
	// holds the header or block by reference until it is encoded.
	rpy, err := Decode(NewRpyChild(req, h).Encode())
	if err != nil {
		t.Fatalf("Decode RPY_CHILD: %v", err)
	}
	back, err := rpy.DecodeHeaderPayload()
	if err != nil {
		t.Fatalf("DecodeHeaderPayload: %v", err)
	}
	if back.Hash() != h.Hash() {
		t.Fatal("header payload mismatch")
	}
	if _, err := req.DecodeHeaderPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("header decode on REQ should fail: %v", err)
	}

	blk := &block.Block{Header: *h, Body: []byte("body bytes")}
	get := NewGetBlock(1, 2, h.Ref(), 2, 2)
	resp, err := Decode(NewBlockResp(get, blk).Encode())
	if err != nil {
		t.Fatalf("Decode BLOCK_RESP: %v", err)
	}
	backBlk, err := resp.DecodeBlockPayload()
	if err != nil {
		t.Fatalf("DecodeBlockPayload: %v", err)
	}
	if string(backBlk.Body) != string(blk.Body) || backBlk.Header.Hash() != h.Hash() {
		t.Fatal("block payload mismatch")
	}
	if _, err := get.DecodeBlockPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("block decode on GET should fail: %v", err)
	}
}

func TestDigestBatchPayload(t *testing.T) {
	ds := []digest.Digest{
		digest.Sum([]byte("first")),
		digest.Sum([]byte("second")),
		digest.Sum([]byte("third")),
	}
	m := NewDigestBatch(7, 8, ds, 11)
	if m.Digest != ds[len(ds)-1] {
		t.Fatal("batch Digest field must hold the newest digest")
	}
	back, err := m.DecodeDigestBatchPayload()
	if err != nil {
		t.Fatalf("DecodeDigestBatchPayload: %v", err)
	}
	if len(back) != len(ds) {
		t.Fatalf("got %d digests, want %d", len(back), len(ds))
	}
	for i := range ds {
		if back[i] != ds[i] {
			t.Fatalf("digest %d mismatch (seal order must survive the wire)", i)
		}
	}
	// The wrong kind and a payload not a multiple of digest.Size are
	// both rejected.
	ann := NewDigestAnnounce(1, 2, ds[0], 1)
	if _, err := ann.DecodeDigestBatchPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("batch decode on DIGEST should fail: %v", err)
	}
	m.Payload = m.Payload[:len(m.Payload)-1]
	if _, err := m.DecodeDigestBatchPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("ragged payload should fail: %v", err)
	}
}

func TestDecodeRejectsBadKind(t *testing.T) {
	m := NewDigestAnnounce(1, 2, digest.Sum([]byte("d")), 0)
	enc := m.Encode()
	enc[0] = 0
	if _, err := Decode(enc); !errors.Is(err, ErrBadKind) {
		t.Fatalf("want ErrBadKind, got %v", err)
	}
	enc[0] = 99
	if _, err := Decode(enc); !errors.Is(err, ErrBadKind) {
		t.Fatalf("want ErrBadKind, got %v", err)
	}
}

func TestDecodeTruncatedAndTrailing(t *testing.T) {
	m := NewReqChild(1, 2, digest.Sum([]byte("t")), 1, 1)
	enc := m.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(enc, 0x00)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", err)
	}
}

func TestKindStringAndPredicates(t *testing.T) {
	if KindReqChild.String() != "REQ_CHILD" || KindRpyChild.String() != "RPY_CHILD" {
		t.Fatal("kind names wrong")
	}
	if Kind(0).Valid() || Kind(200).Valid() {
		t.Fatal("invalid kinds accepted")
	}
	if !KindRpyChild.IsResponse() || !KindNotFound.IsResponse() || KindReqChild.IsResponse() {
		t.Fatal("IsResponse wrong")
	}
	// PeerList answers Hello through the RPC correlation map; DigestAck
	// is unsolicited by design (it acknowledges corr-0 announcements).
	if !KindPeerList.IsResponse() || KindHello.IsResponse() || KindDigestAck.IsResponse() || KindLeave.IsResponse() {
		t.Fatal("directory IsResponse wrong")
	}
	if Kind(250).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

// TestKindStringExhaustive pins that every defined kind has a name:
// adding a kind without extending String (or the Valid range) fails
// here, not in a log line reading "KIND(11)".
func TestKindStringExhaustive(t *testing.T) {
	for k := KindDigestAnnounce; k < kindMax; k++ {
		if !k.Valid() {
			t.Fatalf("kind %d inside the enum range reports invalid", k)
		}
		if s := k.String(); len(s) >= 5 && s[:5] == "KIND(" {
			t.Fatalf("kind %d has no String case: %q", k, s)
		}
	}
	if s := kindMax.String(); len(s) < 5 || s[:5] != "KIND(" {
		t.Fatalf("kindMax must render as unknown, got %q", s)
	}
	if kindMax.Valid() {
		t.Fatal("kindMax must be invalid")
	}
}

// Golden frames: the exact bytes of a Hello and a PeerList, pinned so
// the directory protocol's encoding never drifts silently (cross-host
// processes of different builds must interoperate).
const (
	goldenHelloHex    = "09030000000000000007000000000000000900000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002800000001000000000000000040604000000000000059400d0031302e302e302e333a3930303004aabbccdd"
	goldenPeerListHex = "0a0000000003000000070000000000000009000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000077000000030000000000000001ffffffff000000000000594000000000000059400d0031302e302e302e313a3930303001010200000000ffffffff0000000000004e400000000000005940000000030000000101000000000000000040604000000000000059400d0031302e302e302e333a3930303004aabbccdd"
)

func goldenHello() *Message {
	return NewHello(3, 0, HelloInfo{
		Addr:   "10.0.0.3:9000",
		PubKey: []byte{0xAA, 0xBB, 0xCC, 0xDD},
		Anchor: 1,
		X:      130, Y: 100,
	}, 7, 9)
}

func goldenPeerList() *Message {
	req := &Message{Kind: KindHello, From: 3, To: 0, Corr: 7, Nonce: 9}
	return NewPeerList(req, []PeerEntry{
		{ID: 0, Live: true, Anchor: NoAnchor, X: 100, Y: 100, Addr: "10.0.0.1:9000", PubKey: []byte{0x01}},
		{ID: 2, Live: false, Anchor: NoAnchor, X: 60, Y: 100},
		{ID: 3, Live: true, Anchor: 1, X: 130, Y: 100, Addr: "10.0.0.3:9000", PubKey: []byte{0xAA, 0xBB, 0xCC, 0xDD}},
	})
}

func TestGoldenHelloFrame(t *testing.T) {
	m := goldenHello()
	if got := hex.EncodeToString(m.Encode()); got != goldenHelloHex {
		t.Fatalf("hello encoding drifted:\ngot  %s\nwant %s", got, goldenHelloHex)
	}
	raw, _ := hex.DecodeString(goldenHelloHex)
	back, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode golden hello: %v", err)
	}
	info, err := back.DecodeHelloPayload()
	if err != nil {
		t.Fatalf("DecodeHelloPayload: %v", err)
	}
	if info.Addr != "10.0.0.3:9000" || string(info.PubKey) != "\xaa\xbb\xcc\xdd" ||
		info.Anchor != 1 || info.X != 130 || info.Y != 100 {
		t.Fatalf("golden hello fields wrong: %+v", info)
	}
}

func TestGoldenPeerListFrame(t *testing.T) {
	m := goldenPeerList()
	if got := hex.EncodeToString(m.Encode()); got != goldenPeerListHex {
		t.Fatalf("peer list encoding drifted:\ngot  %s\nwant %s", got, goldenPeerListHex)
	}
	raw, _ := hex.DecodeString(goldenPeerListHex)
	back, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode golden peer list: %v", err)
	}
	entries, err := back.DecodePeerListPayload()
	if err != nil {
		t.Fatalf("DecodePeerListPayload: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	if !entries[0].Live || entries[0].Anchor != NoAnchor || entries[0].Addr != "10.0.0.1:9000" {
		t.Fatalf("entry 0 wrong: %+v", entries[0])
	}
	if entries[1].Live || entries[1].ID != 2 || entries[1].Addr != "" || len(entries[1].PubKey) != 0 {
		t.Fatalf("entry 1 wrong: %+v", entries[1])
	}
	if entries[2].Anchor != 1 || entries[2].X != 130 {
		t.Fatalf("entry 2 wrong: %+v", entries[2])
	}
}

func TestHelloPayloadHardening(t *testing.T) {
	m := goldenHello()
	// Truncation anywhere in the payload is rejected.
	for cut := 0; cut < len(m.Payload); cut++ {
		bad := &Message{Kind: KindHello, Payload: m.Payload[:cut]}
		if _, err := bad.DecodeHelloPayload(); err == nil {
			t.Fatalf("hello payload truncated at %d accepted", cut)
		}
	}
	// Trailing bytes are rejected.
	bad := &Message{Kind: KindHello, Payload: append(append([]byte(nil), m.Payload...), 0)}
	if _, err := bad.DecodeHelloPayload(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", err)
	}
	// An address length past the limit is rejected before any read.
	over := append([]byte(nil), m.Payload...)
	binary.LittleEndian.PutUint16(over[4+8+8:], maxAddrLen+1)
	bad = &Message{Kind: KindHello, Payload: over}
	if _, err := bad.DecodeHelloPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("want ErrBadPayload for oversized addr, got %v", err)
	}
	// The wrong kind is rejected.
	if _, err := NewLeave(1, 2, 3).DecodeHelloPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("hello decode on LEAVE should fail: %v", err)
	}
}

func TestPeerListPayloadHardening(t *testing.T) {
	m := goldenPeerList()
	for cut := 0; cut < len(m.Payload); cut++ {
		bad := &Message{Kind: KindPeerList, Payload: m.Payload[:cut]}
		if _, err := bad.DecodePeerListPayload(); err == nil {
			t.Fatalf("peer list truncated at %d accepted", cut)
		}
	}
	// An absurd entry count is rejected before allocation.
	count := append([]byte(nil), m.Payload...)
	binary.LittleEndian.PutUint32(count, 1<<30)
	bad := &Message{Kind: KindPeerList, Payload: count}
	if _, err := bad.DecodePeerListPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("want ErrBadPayload for absurd count, got %v", err)
	}
	// A liveness byte other than 0/1 is rejected.
	live := append([]byte(nil), m.Payload...)
	live[4+4] = 7
	bad = &Message{Kind: KindPeerList, Payload: live}
	if _, err := bad.DecodePeerListPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("want ErrBadPayload for bad liveness, got %v", err)
	}
	// Trailing bytes are rejected.
	bad = &Message{Kind: KindPeerList, Payload: append(append([]byte(nil), m.Payload...), 0)}
	if _, err := bad.DecodePeerListPayload(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", err)
	}
	if _, err := NewLeave(1, 2, 3).DecodePeerListPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("peer list decode on LEAVE should fail: %v", err)
	}
}

func TestDigestAckEchoesAnnouncement(t *testing.T) {
	// Singleton: the ack swaps endpoints and echoes the digest, with no
	// payload.
	ann := NewDigestAnnounce(1, 2, digest.Sum([]byte("d")), 3)
	ack := NewDigestAck(ann)
	if ack.From != 2 || ack.To != 1 || ack.Digest != ann.Digest || ack.Nonce != 3 || len(ack.Payload) != 0 {
		t.Fatalf("singleton ack wrong: %+v", ack)
	}
	if ds, err := ack.DecodeDigestAckPayload(); err != nil || ds != nil {
		t.Fatalf("singleton ack payload: ds=%v err=%v", ds, err)
	}
	// Batch: the ack echoes the digest run so the sender resolves every
	// carried digest.
	ds := []digest.Digest{digest.Sum([]byte("a")), digest.Sum([]byte("b"))}
	back, err := NewDigestAck(NewDigestBatch(1, 2, ds, 4)).DecodeDigestAckPayload()
	if err != nil {
		t.Fatalf("DecodeDigestAckPayload: %v", err)
	}
	if len(back) != 2 || back[0] != ds[0] || back[1] != ds[1] {
		t.Fatalf("batch ack digests wrong: %v", back)
	}
	// A ragged echo and the wrong kind are rejected.
	bad := &Message{Kind: KindDigestAck, Payload: make([]byte, digest.Size+1)}
	if _, err := bad.DecodeDigestAckPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("ragged ack should fail: %v", err)
	}
	if _, err := ann.DecodeDigestAckPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("ack decode on DIGEST should fail: %v", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{
			Kind:  Kind(r.Intn(int(kindMax)-1) + 1),
			From:  identity.NodeID(r.Uint32()),
			To:    identity.NodeID(r.Uint32()),
			Corr:  r.Uint64(),
			Nonce: r.Uint64(),
			Ref:   block.Ref{Node: identity.NodeID(r.Uint32()), Seq: r.Uint32()},
		}
		r.Read(m.Digest[:])
		m.Payload = make([]byte, r.Intn(100))
		r.Read(m.Payload)
		got, err := Decode(m.Encode())
		return err == nil && messagesEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeMessage hardens the frame decoder (and the directory
// payload decoders behind it) against hostile input: no panic, and
// anything Decode accepts must re-encode to the identical bytes.
func FuzzDecodeMessage(f *testing.F) {
	// Seed corpus: every constructor's valid frame, truncations of a
	// representative frame, an unknown kind, and ragged directory
	// payloads.
	req := NewReqChild(1, 2, digest.Sum([]byte("t")), 7, 9)
	hello := goldenHello()
	seeds := [][]byte{
		NewDigestAnnounce(1, 2, digest.Sum([]byte("d")), 3).Encode(),
		NewDigestBatch(1, 2, []digest.Digest{digest.Sum([]byte("a")), digest.Sum([]byte("b"))}, 4).Encode(),
		NewDigestAck(NewDigestBatch(1, 2, []digest.Digest{digest.Sum([]byte("a"))}, 4)).Encode(),
		req.Encode(),
		NewRpyChild(req, sampleHeader()).Encode(),
		NewBlockResp(req, &block.Block{Header: *sampleHeader(), Body: []byte("body")}).Encode(),
		NewNotFound(req).Encode(),
		hello.Encode(),
		goldenPeerList().Encode(),
		NewLeave(1, 2, 6).Encode(),
	}
	full := hello.Encode()
	for _, cut := range []int{0, 1, 8, 20, len(full) / 2, len(full) - 1} {
		seeds = append(seeds, full[:cut])
	}
	unknown := append([]byte(nil), full...)
	unknown[0] = byte(kindMax)
	seeds = append(seeds, unknown)
	ragged := goldenPeerList()
	ragged.Payload = ragged.Payload[:len(ragged.Payload)-3]
	seeds = append(seeds, ragged.Encode())
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Decode(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Encode(), raw) {
			t.Fatalf("accepted frame does not re-encode identically")
		}
		// The payload decoders must never panic on accepted frames.
		switch m.Kind {
		case KindHello:
			_, _ = m.DecodeHelloPayload()
		case KindPeerList:
			_, _ = m.DecodePeerListPayload()
		case KindDigestAck:
			_, _ = m.DecodeDigestAckPayload()
		case KindDigestBatch:
			_, _ = m.DecodeDigestBatchPayload()
		}
	})
}

// goldenFrames builds one frame of every kind from fixed inputs.
func goldenFrames() []*Message {
	h := sampleHeader()
	blk := &block.Block{Header: *h, Body: []byte("golden body bytes")}
	req := NewReqChild(1, 2, digest.Sum([]byte("t")), 7, 9)
	get := NewGetBlock(1, 2, h.Ref(), 8, 10)
	batch := NewDigestBatch(1, 2, []digest.Digest{digest.Sum([]byte("a")), digest.Sum([]byte("b"))}, 4)
	return []*Message{
		NewDigestAnnounce(1, 2, digest.Sum([]byte("d")), 3),
		req,
		NewRpyChild(req, h),
		get,
		NewBlockResp(get, blk),
		NewNotFound(get),
		batch,
		NewDigestAck(batch),
		goldenHello(),
		goldenPeerList(),
		NewLeave(1, 2, 6),
	}
}

// goldenFrameSums are the SHA-256 of each goldenFrames encoding, computed
// on the commit before RpyChild and BlockResp began to encode their
// header or block inside AppendEncode: no frame byte may move.
var goldenFrameSums = map[Kind]string{
	KindDigestAnnounce: "078ccc47229de45cb34737965bcffdc682b4f635ff7b569c2a6a402f7108b3f9",
	KindReqChild:       "493274784b764e5e08b20db18775f1dd262502cd177e1d3eac7a5e1b361f5da0",
	KindRpyChild:       "5b13973db533f317b7938b3f9e9929d796e8a94b73063aef5393a04ddd96c1f9",
	KindGetBlock:       "3eabe430af0a16dbd5b3436b5fb8fc0cb7ef752108c7746c3b4d4f21f1e534d3",
	KindBlockResp:      "c2116cf7a6e208a654e1b23907ca2dd13b0c8c5f69db63bfb74006d41fb34375",
	KindNotFound:       "a4e85de99a9cfb3f15bd9e4a2b90a144e3d43423507a03b504daeac43ff35fdc",
	KindDigestBatch:    "436267422c562e4fc79b966ec3cc5a4dc69e37a7f71d8359fc7abfe831fe2dd8",
	KindDigestAck:      "96928632017b6e3161beee6bb78254214562af7bd7df63f30ce41dd37bb76978",
	KindHello:          "aa5c0ee9346b5f4411fe804a145869d1e3fb84f13c1c39332c6aaa8a610e5a05",
	KindPeerList:       "3d09b3bdb7ca33d015a86bafad8f5e69ab8c977d5553e4efd739bed103539444",
	KindLeave:          "9416a96af4e84697910174dbc9e10525d1a395c1b3ca66df1b921ab226f1217b",
}

func TestFrameBytesGolden(t *testing.T) {
	frames := goldenFrames()
	if len(frames) != int(kindMax)-1 {
		t.Fatalf("%d golden frames for %d kinds", len(frames), int(kindMax)-1)
	}
	for _, m := range frames {
		enc := m.AppendEncode(nil)
		if len(enc) != m.WireSize() {
			t.Fatalf("%v: WireSize %d, encoded %d", m.Kind, m.WireSize(), len(enc))
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != goldenFrameSums[m.Kind] {
			t.Errorf("%v: frame bytes drifted: sha256 %s, want %s", m.Kind, got, goldenFrameSums[m.Kind])
		}
	}
}

// TestEncodedRepliesMatchGoldenFrames: a reply built from a header's or
// block's encoding as a segment record holds it encodes to the very
// frame the reply built from the header or block does.
func TestEncodedRepliesMatchGoldenFrames(t *testing.T) {
	h := sampleHeader()
	blk := &block.Block{Header: *h, Body: []byte("golden body bytes")}
	req := NewReqChild(1, 2, digest.Sum([]byte("t")), 7, 9)
	get := NewGetBlock(1, 2, h.Ref(), 8, 10)
	for _, m := range []*Message{
		NewRpyChildEncoded(req, block.AppendEncodeHeader(nil, h)),
		NewBlockRespEncoded(get, block.Encode(blk)),
	} {
		enc := m.AppendEncode(nil)
		if len(enc) != m.WireSize() {
			t.Fatalf("%v: WireSize %d, encoded %d", m.Kind, m.WireSize(), len(enc))
		}
		if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != goldenFrameSums[m.Kind] {
			t.Errorf("%v: a reply built from its encoding frames other bytes", m.Kind)
		}
	}
}
