package block

import (
	"errors"
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

func TestBuildBodyTooLarge(t *testing.T) {
	key := identity.Deterministic(1, 7)
	p := testParams()
	p.MaxBodyBytes = 4
	if _, err := p.Build(key, 0, 0, []byte("too large"), nil); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("want ErrBodyTooLarge, got %v", err)
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
	if !pow.VerifyPrefix(b.Header.powPrefix(), b.Header.Nonce, 0) {
		t.Fatal("zero-difficulty block should trivially verify")
	}
}

// TestPreimageBuffersAreExact pins the two preimage buffers of
// ValidateHeader to one allocation each: powPrefix reserves the nonce's
// room, so pow.VerifyPrefix appends in place, and SigPreimage is sized
// for every field it writes — for an empty Δ (a decoded header may
// carry one) as for a seal-sized one.
func TestPreimageBuffersAreExact(t *testing.T) {
	for _, n := range []int{0, 1, 4, 9} {
		h := &Header{}
		for v := 0; v < n; v++ {
			h.Digests = append(h.Digests, DigestRef{Node: identity.NodeID(v), Digest: digest.Sum([]byte{byte(v)})})
		}
		prefix := h.powPrefix()
		if got := testing.AllocsPerRun(100, func() { pow.VerifyPrefix(prefix, 7, 0) }); got != 0 {
			t.Errorf("Δ of %d: VerifyPrefix allocates %v times appending the nonce, want 0", n, got)
		}
		if got := testing.AllocsPerRun(100, func() { pow.VerifyPrefix(h.powPrefix(), 7, 0) }); got != 1 {
			t.Errorf("Δ of %d: powPrefix + VerifyPrefix allocate %v times, want 1", n, got)
		}
		// One buffer plus the digest slice SigPreimage returns.
		if got := testing.AllocsPerRun(100, func() { h.SigPreimage() }); got != 2 {
			t.Errorf("Δ of %d: SigPreimage allocates %v times, want 2", n, got)
		}
	}
}
