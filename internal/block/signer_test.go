package block

import (
	"errors"
	"runtime"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// forget drops d's verdict, so the next check of its header misses.
func (c *VerifyCache) forget(d digest.Digest) {
	s := c.shard(d)
	s.mu.Lock()
	delete(s.ok, d)
	s.mu.Unlock()
}

// badlySigned returns a header of key's whose signature does not
// verify, so only a check that skips the signature accepts it.
func badlySigned(t testing.TB, key identity.KeyPair) *Header {
	t.Helper()
	p := testParams()
	b, err := p.Build(key, 1, 3, []byte("body"), []DigestRef{{Node: key.ID}})
	if err != nil {
		t.Fatal(err)
	}
	h := b.Header.Clone()
	h.Signature[0] ^= 1
	h.Seal()
	return h
}

// sealedAt is a Signer.Sealed reporting hash d at seq and nothing
// anywhere else.
func sealedAt(seq uint32, d digest.Digest) func(uint32) (digest.Digest, bool) {
	return func(s uint32) (digest.Digest, bool) { return d, s == seq }
}

// TestValidateHeaderCachedSealedHere: a header skips its signature
// check exactly when its origin's registered signer reports its hash
// at its seq and the ring holds the key that signer signs with. The
// header here is badly signed, so a case that skips accepts it and a
// case that checks it in full refuses it.
func TestValidateHeaderCachedSealedHere(t *testing.T) {
	key := identity.Deterministic(5, 1)
	other := identity.Deterministic(5, 2)
	stranger := identity.Deterministic(6, 1)
	h := badlySigned(t, key)
	hh := h.Hash()
	posing := other
	posing.Public = key.Public // claims the ring's key, signs with another

	for _, tc := range []struct {
		name   string
		signer *Signer
		ring   identity.KeyPair
		skip   bool
	}{
		{"sealed here", &Signer{Key: &key, Sealed: sealedAt(h.Seq, hh)}, key, true},
		{"no signer", nil, key, false},
		{"not sealed at seq", &Signer{Key: &key, Sealed: sealedAt(h.Seq+1, hh)}, key, false},
		{"another header at seq", &Signer{Key: &key, Sealed: sealedAt(h.Seq, digest.Sum([]byte("x")))}, key, false},
		{"signer for another node", &Signer{Key: &stranger, Sealed: sealedAt(h.Seq, hh)}, key, false},
		{"ring holds another key", &Signer{Key: &key, Sealed: sealedAt(h.Seq, hh)}, other, false},
		{"signer poses as the ring's key", &Signer{Key: &posing, Sealed: sealedAt(h.Seq, hh)}, key, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring, err := identity.RingFor([]identity.KeyPair{tc.ring})
			if err != nil {
				t.Fatal(err)
			}
			cache := NewVerifyCache()
			if tc.signer != nil {
				cache.Register(tc.signer)
			}
			err = testParams().ValidateHeaderCached(h, ring, cache)
			switch {
			case tc.skip && err != nil:
				t.Fatalf("sealed-here header refused: %v", err)
			case !tc.skip && !errors.Is(err, identity.ErrBadSignature):
				t.Fatalf("got %v, want %v", err, identity.ErrBadSignature)
			case tc.skip && cache.Len() != 1, !tc.skip && cache.Len() != 0:
				t.Fatalf("cache holds %d verdicts", cache.Len())
			}
			runtime.KeepAlive(tc.signer)
		})
	}
}

// TestVerifyCacheHoldsSignersWeakly: a registered signer nobody else
// references is collected, and its headers are checked in full again;
// a later registration for the node replaces an earlier one.
func TestVerifyCacheHoldsSignersWeakly(t *testing.T) {
	key := identity.Deterministic(5, 1)
	ring, err := identity.RingFor([]identity.KeyPair{key})
	if err != nil {
		t.Fatal(err)
	}
	h := badlySigned(t, key)
	p := testParams()
	cache := NewVerifyCache()
	cache.Register(&Signer{Key: &key, Sealed: sealedAt(h.Seq, h.Hash())})
	runtime.GC()
	runtime.GC()
	if err := p.ValidateHeaderCached(h, ring, cache); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("collected signer: got %v, want %v", err, identity.ErrBadSignature)
	}

	first := &Signer{Key: &key, Sealed: sealedAt(h.Seq, h.Hash())}
	cache.Register(first)
	cache.Register(&Signer{Key: &key, Sealed: sealedAt(h.Seq+1, h.Hash())})
	if err := p.ValidateHeaderCached(h, ring, cache); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("replaced signer: got %v, want %v", err, identity.ErrBadSignature)
	}
	runtime.KeepAlive(first)
}
