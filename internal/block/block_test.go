package block

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/pow"
)

func testParams() Params {
	p := DefaultParams()
	p.Difficulty = 4 // keep unit tests fast
	return p
}

func buildTestBlock(t *testing.T, key identity.KeyPair, seq uint32, body []byte, digests []DigestRef) *Block {
	t.Helper()
	b, err := testParams().Build(key, seq, seq, body, digests)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return b
}

func TestBuildAndValidate(t *testing.T) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	b := buildTestBlock(t, key, 0, []byte("genesis sensor data"), []DigestRef{{Node: 1}})
	if err := testParams().Validate(b, ring); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateDetectsBodyTamper(t *testing.T) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	b := buildTestBlock(t, key, 0, []byte("original data"), []DigestRef{{Node: 1}})
	// Sealed blocks are immutable; a tamperer works on a copy, which
	// carries no body-root memo and is re-hashed from scratch.
	tampered := b.Clone()
	tampered.Body[0] ^= 0xFF
	if err := testParams().Validate(tampered, ring); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("want ErrRootMismatch, got %v", err)
	}
}

func TestValidateDetectsHeaderTamper(t *testing.T) {
	key := identity.Deterministic(1, 7)
	other := identity.Deterministic(2, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key, other})
	b := buildTestBlock(t, key, 3, []byte("data"), []DigestRef{
		{Node: 1, Digest: digest.Sum([]byte("prev"))},
		{Node: 2, Digest: digest.Sum([]byte("neighbor"))},
	})

	// A man-in-the-middle flips one digest in Δ. The PoW preimage
	// changes, so either the PoW or the signature check must fail.
	tampered := b.Clone()
	tampered.Header.Digests[1].Digest = digest.Sum([]byte("forged"))
	if err := testParams().Validate(tampered, ring); err == nil {
		t.Fatal("tampered Δ accepted")
	}

	// Changing the claimed time must break the signature.
	tampered = b.Clone()
	tampered.Header.Time++
	if err := testParams().ValidateHeader(&tampered.Header, ring); err == nil {
		t.Fatal("tampered time accepted")
	}
}

func TestValidateRejectsWrongSigner(t *testing.T) {
	key := identity.Deterministic(1, 7)
	imposter := identity.Deterministic(2, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key, imposter})
	b := buildTestBlock(t, key, 1, []byte("data"), []DigestRef{{Node: 1}})
	b.Header.Origin = 2 // claim another origin
	if err := testParams().ValidateHeader(&b.Header, ring); err == nil {
		t.Fatal("origin spoofing accepted")
	}
}

func TestValidateVersion(t *testing.T) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	b := buildTestBlock(t, key, 0, []byte("d"), []DigestRef{{Node: 1}})
	p := testParams()
	p.Version = 2
	if err := p.Validate(b, ring); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
}

func TestValidatePow(t *testing.T) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	p := testParams()
	b := buildTestBlock(t, key, 0, []byte("d"), []DigestRef{{Node: 1}})
	p.Difficulty = 30 // require far more work than was done
	if err := p.ValidateHeader(&b.Header, ring); !errors.Is(err, ErrPowUnsatisfied) {
		t.Fatalf("want ErrPowUnsatisfied, got %v", err)
	}
}

// linkedChain builds key's blocks from seq first on, each linking to
// the one before it (the first to prev).
func linkedChain(t *testing.T, key identity.KeyPair, first uint32, prev digest.Digest, n int) []*Block {
	t.Helper()
	var out []*Block
	for i := 0; i < n; i++ {
		seq := first + uint32(i)
		b := buildTestBlock(t, key, seq, []byte{byte(seq)}, []DigestRef{{Node: key.ID, Digest: prev}, {Node: 9}})
		out = append(out, b)
		prev = b.Header.Hash()
	}
	return out
}

// TestVerifyChain: one signature — the newest block's — authenticates
// a linked chain of sealed blocks that pass every other check of
// Validate; anything else is refused.
func TestVerifyChain(t *testing.T) {
	key := identity.Deterministic(1, 7)
	imposter := identity.Deterministic(1, 8) // owner 1's ID, another key
	other := identity.Deterministic(2, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key, other})
	p := testParams()
	chain := linkedChain(t, key, 0, digest.Digest{}, 4)
	with := func(k int, b *Block) []*Block {
		c := append([]*Block(nil), chain...)
		c[k] = b
		return c
	}
	resealed := func(b *Block) *Block {
		if err := p.SealBlock(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	tampered := chain[1].Clone()
	tampered.Body[0] ^= 0xFF
	badSig := chain[1].Clone()
	badSig.Header.Signature[0] ^= 0xFF
	resealed(badSig)
	signedOver := append([]*Block{chain[0], badSig}, linkedChain(t, key, 2, badSig.Header.Hash(), 2)...)
	highVersion, hardPow := p, p
	highVersion.Version++
	hardPow.Difficulty = 30

	for _, tc := range []struct {
		name   string
		p      Params
		prev   *Header
		blocks []*Block
		want   bool
	}{
		{"honest", p, nil, chain, true},
		{"empty", p, nil, nil, true},
		{"linked to prev", p, &chain[0].Header, chain[1:], true},
		{"not linked to prev", p, &chain[1].Header, chain[1:], false},
		{"broken link", p, nil, with(2, linkedChain(t, key, 2, digest.Sum([]byte("elsewhere")), 1)[0]), false},
		{"head by an imposter", p, nil, with(3, linkedChain(t, imposter, 3, chain[2].Header.Hash(), 1)[0]), false},
		{"another origin", p, nil, with(1, buildTestBlock(t, other, 1, []byte{1}, chain[1].Header.Digests)), false},
		{"body tampered", p, nil, with(1, resealed(tampered)), false},
		{"unsealed", p, nil, with(1, chain[1].Clone()), false},
		{"version", highVersion, nil, chain, false},
		{"pow", hardPow, nil, chain, false},
		// The one input Validate refuses and the proof accepts: block
		// 1's own signature is bad, but its successor, signed by the
		// same key, commits to it as it is.
		{"signed by its successor", p, nil, signedOver, true},
	} {
		if got := tc.p.VerifyChain(tc.prev, tc.blocks, ring); got != tc.want {
			t.Errorf("%s: VerifyChain = %v, want %v", tc.name, got, tc.want)
		}
	}
	if err := p.Validate(badSig, ring); err == nil {
		t.Fatal("a bad signature validated")
	}
}

// TestMaxEncodedLen: a block with every field at its decoder limit
// encodes to exactly MaxEncodedLen bytes and decodes; one Δ entry more
// is refused.
func TestMaxEncodedLen(t *testing.T) {
	b := &Block{
		Header: Header{Digests: make([]DigestRef, MaxDigestRefs), Signature: make([]byte, MaxSignatureLen)},
		Body:   make([]byte, MaxBodyLen),
	}
	enc := Encode(b)
	if len(enc) != MaxEncodedLen {
		t.Fatalf("the longest block encodes to %d bytes, MaxEncodedLen is %d", len(enc), MaxEncodedLen)
	}
	if _, err := Decode(enc); err != nil {
		t.Fatalf("Decode of the longest block: %v", err)
	}
	b.Header.Digests = append(b.Header.Digests, DigestRef{})
	if _, err := Decode(Encode(b)); !errors.Is(err, ErrBadEncoded) || !strings.Contains(err.Error(), ErrOversized.Error()) {
		t.Fatalf("Decode past the Δ limit: %v, want %v", err, ErrOversized)
	}
}

func TestBuildBodyTooLarge(t *testing.T) {
	key := identity.Deterministic(1, 7)
	p := testParams()
	if _, err := p.Build(key, 0, 0, make([]byte, MaxBodyLen+1), nil); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("want ErrBodyTooLarge, got %v", err)
	}
	// The largest body Build accepts is one the decoder reads back.
	b, err := p.Build(key, 0, 0, make([]byte, MaxBodyLen), nil)
	if err != nil {
		t.Fatalf("Build of a MaxBodyLen body: %v", err)
	}
	if got, err := Decode(Encode(b)); err != nil || len(got.Body) != MaxBodyLen {
		t.Fatalf("Decode of a MaxBodyLen block: %v", err)
	}
}

func TestDigestOfAndContains(t *testing.T) {
	key := identity.Deterministic(1, 7)
	prev := digest.Sum([]byte("prev"))
	nb := digest.Sum([]byte("neighbor 5"))
	b := buildTestBlock(t, key, 2, []byte("d"), []DigestRef{
		{Node: 1, Digest: prev},
		{Node: 5, Digest: nb},
	})
	h := &b.Header
	if got, ok := h.DigestOf(5); !ok || got != nb {
		t.Fatal("DigestOf(5) wrong")
	}
	if _, ok := h.DigestOf(9); ok {
		t.Fatal("DigestOf(9) should be absent")
	}
	if !h.Contains(prev) || !h.Contains(nb) {
		t.Fatal("Contains misses stored digests")
	}
	if h.Contains(digest.Sum([]byte("other"))) {
		t.Fatal("Contains reports absent digest")
	}
	if h.Contains(digest.Digest{}) {
		t.Fatal("Contains must never match the zero digest")
	}
	if h.PrevDigest() != prev {
		t.Fatal("PrevDigest wrong")
	}
}

func TestGenesisDigestOfSkipsZero(t *testing.T) {
	key := identity.Deterministic(1, 7)
	b := buildTestBlock(t, key, 0, []byte("genesis"), []DigestRef{{Node: 1}})
	if _, ok := b.Header.DigestOf(1); ok {
		t.Fatal("genesis zero placeholder must not be reported")
	}
	if !b.Header.PrevDigest().IsZero() {
		t.Fatal("genesis PrevDigest should be zero")
	}
}

func TestHashCoversSignature(t *testing.T) {
	key := identity.Deterministic(1, 7)
	b := buildTestBlock(t, key, 1, []byte("d"), []DigestRef{{Node: 1}})
	h1 := b.Header.Hash()
	mut := b.Header.Clone()
	mut.Signature[0] ^= 0x01
	if mut.Hash() == h1 {
		t.Fatal("header hash must cover the signature")
	}
}

func TestCloneIsDeep(t *testing.T) {
	key := identity.Deterministic(1, 7)
	b := buildTestBlock(t, key, 1, []byte("body"), []DigestRef{{Node: 1, Digest: digest.Sum([]byte("p"))}})
	c := b.Clone()
	c.Body[0] ^= 0xFF
	c.Header.Digests[0].Digest = digest.Digest{}
	c.Header.Signature[0] ^= 0xFF
	if b.Body[0] == c.Body[0] || b.Header.Digests[0].Digest.IsZero() || b.Header.Signature[0] == c.Header.Signature[0] {
		t.Fatal("Clone shares memory with original")
	}
}

func TestBuildDifferentNoncesForDifferentContent(t *testing.T) {
	// Mining must actually depend on Δ: two blocks with different Δ
	// almost surely mine different digests.
	key := identity.Deterministic(1, 7)
	a := buildTestBlock(t, key, 1, []byte("d"), []DigestRef{{Node: 1, Digest: digest.Sum([]byte("x"))}})
	b := buildTestBlock(t, key, 1, []byte("d"), []DigestRef{{Node: 1, Digest: digest.Sum([]byte("y"))}})
	if a.Header.Hash() == b.Header.Hash() {
		t.Fatal("distinct Δ produced identical headers")
	}
}

func TestQuickTamperAnyHeaderFieldDetected(t *testing.T) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	p := testParams()
	base := buildTestBlock(t, key, 5, []byte("quick body"), []DigestRef{
		{Node: 1, Digest: digest.Sum([]byte("prev"))},
		{Node: 2, Digest: digest.Sum([]byte("n2"))},
	})
	f := func(field uint8, delta uint32) bool {
		if delta == 0 {
			delta = 1
		}
		h := base.Header.Clone()
		switch field % 5 {
		case 0:
			h.Time += delta
		case 1:
			h.Seq += delta
		case 2:
			h.Root[delta%digest.Size] ^= byte(delta | 1)
		case 3:
			h.Digests[delta%2].Digest[0] ^= byte(delta | 1)
		case 4:
			h.Nonce += delta
		}
		return p.ValidateHeader(h, ring) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Node: 3, Seq: 7}
	if r.String() != "n3#7" {
		t.Fatalf("Ref.String = %q", r.String())
	}
	key := identity.Deterministic(3, 1)
	b := buildTestBlock(t, key, 7, []byte("d"), []DigestRef{{Node: 3}})
	if b.Header.Ref() != r {
		t.Fatal("Header.Ref mismatch")
	}
}

func TestPowDifficultyZeroStillBuilds(t *testing.T) {
	p := testParams()
	p.Difficulty = 0
	key := identity.Deterministic(1, 7)
	b, err := p.Build(key, 0, 0, []byte("d"), []DigestRef{{Node: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Header.powSolved(0) {
		t.Fatal("zero-difficulty block should trivially verify")
	}
}

// headerWithRefs returns an unsealed header whose Δ holds n entries.
func headerWithRefs(n int) *Header {
	h := &Header{Version: 1, Time: 2, Origin: 3, Seq: 4, Root: digest.Sum([]byte("root")), Nonce: 5}
	for v := 0; v < n; v++ {
		h.Digests = append(h.Digests, DigestRef{Node: identity.NodeID(v), Digest: digest.Sum([]byte{byte(v)})})
	}
	h.Signature = make([]byte, identity.SignatureSize)
	return h
}

// TestPreimageBuffersAreExact pins every preimage a header builds —
// its wire form for Hash, the Eq. 5 prefix and the Eq. 6 preimage — to
// zero allocations for a Δ of up to stackDigestRefs entries (a decoded
// header may carry an empty one): each lives in a scratch array on the
// caller's stack, and the Eq. 5 scratch leaves room for the nonce.
func TestPreimageBuffersAreExact(t *testing.T) {
	for _, n := range []int{0, 1, 4, stackDigestRefs} {
		h := headerWithRefs(n)
		var scratch powScratch
		prefix := h.appendPowPrefix(scratch[:0])
		if got := testing.AllocsPerRun(100, func() { pow.VerifyPrefix(prefix, 7, 0) }); got != 0 {
			t.Errorf("Δ of %d: VerifyPrefix allocates %v times appending the nonce, want 0", n, got)
		}
		if got := testing.AllocsPerRun(100, func() { h.powSolved(0) }); got != 0 {
			t.Errorf("Δ of %d: the Eq. 5 check allocates %v times, want 0", n, got)
		}
		if got := testing.AllocsPerRun(100, func() { h.SigPreimage() }); got != 0 {
			t.Errorf("Δ of %d: SigPreimage allocates %v times, want 0", n, got)
		}
		if got := testing.AllocsPerRun(100, func() { h.hashOK = false; h.Hash() }); got != 0 {
			t.Errorf("Δ of %d: Hash of an unsealed header allocates %v times, want 0", n, got)
		}
	}
}

// TestPreimagesMatchAcrossScratchBoundary holds each stack-built
// preimage to a heap-built reference for every Δ from empty to three
// entries past the stack scratch, where append moves it to the heap.
func TestPreimagesMatchAcrossScratchBoundary(t *testing.T) {
	for n := 0; n <= stackDigestRefs+3; n++ {
		h := headerWithRefs(n)
		if got, want := h.Hash(), digest.Sum(AppendEncodeHeader(nil, h)); got != want {
			t.Errorf("Δ of %d: Hash %s, encoding hashes to %s", n, got, want)
		}
		sig := make([]byte, 0, 4)
		for _, v := range []uint32{h.Version, h.Time, uint32(h.Origin), h.Seq} {
			sig = appendUint32(sig, v)
		}
		sig = appendUint32(appendDigestRefs(append(sig, h.Root[:]...), h.Digests), h.Nonce)
		if got, want := h.SigPreimage(), digest.Sum(sig); got != want {
			t.Errorf("Δ of %d: SigPreimage %s, reference %s", n, got, want)
		}
		prefix := appendDigestRefs(append([]byte(nil), h.Root[:]...), h.Digests)
		for _, diff := range []pow.Difficulty{0, 1, 2, 3, 4} {
			if got, want := h.powSolved(diff), pow.VerifyPrefix(prefix, h.Nonce, diff); got != want {
				t.Errorf("Δ of %d, difficulty %d: Eq. 5 check %v, reference %v", n, diff, got, want)
			}
		}
		var scratch powScratch
		if got := h.appendPowPrefix(scratch[:0]); string(got) != string(prefix) {
			t.Errorf("Δ of %d: Eq. 5 prefix differs from the reference", n)
		}
	}
}

// TestValidationPreimagesAllocateNothing pins ValidateHeader and
// VerifyChain at zero allocations on seal-sized headers: no preimage
// of either reaches the heap, for the one signature or per block.
func TestValidationPreimagesAllocateNothing(t *testing.T) {
	key := identity.Deterministic(1, 7)
	ring, _ := identity.RingFor([]identity.KeyPair{key})
	p := testParams()
	var refs []DigestRef
	for v := 2; v <= stackDigestRefs; v++ {
		refs = append(refs, DigestRef{Node: identity.NodeID(v), Digest: digest.Sum([]byte{byte(v)})})
	}
	var chain []*Block
	prev := digest.Digest{}
	for seq := uint32(0); seq < 4; seq++ {
		b, err := p.Build(key, seq, seq, []byte{byte(seq)}, append([]DigestRef{{Node: key.ID, Digest: prev}}, refs...))
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, b)
		prev = b.Header.Hash()
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := p.ValidateHeader(&chain[0].Header, ring); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ValidateHeader allocates %v times, want 0", got)
	}
	for k := 1; k <= len(chain); k++ {
		if got := testing.AllocsPerRun(20, func() {
			if !p.VerifyChain(nil, chain[:k], ring) {
				t.Fatal("VerifyChain refused a linked chain")
			}
		}); got != 0 {
			t.Errorf("VerifyChain over %d blocks allocates %v times, want 0", k, got)
		}
	}
}
