package identity

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestDeterministicSignVerify(t *testing.T) {
	kp := Deterministic(7, 42)
	if !kp.Valid() {
		t.Fatal("derived key pair invalid")
	}
	ring := NewRing()
	if err := ring.Register(kp.ID, kp.Public); err != nil {
		t.Fatalf("Register: %v", err)
	}
	msg := []byte("block header preimage")
	sig := kp.Sign(msg)
	if err := ring.Verify(kp.ID, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	kp := Deterministic(1, 99)
	ring, err := RingFor([]KeyPair{kp})
	if err != nil {
		t.Fatal(err)
	}
	sig := kp.Sign([]byte("original"))
	if err := ring.Verify(1, []byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	a, b := Deterministic(1, 5), Deterministic(2, 5)
	ring, err := RingFor([]KeyPair{a, b})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("who signed this")
	if err := ring.Verify(2, msg, a.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyUnknownNode(t *testing.T) {
	ring := NewRing()
	if err := ring.Verify(42, []byte("m"), make([]byte, SignatureSize)); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	kp := Deterministic(3, 1)
	imp := Deterministic(3, 2) // attacker's key for the same ID
	ring := NewRing()
	if err := ring.Register(kp.ID, kp.Public); err != nil {
		t.Fatal(err)
	}
	if err := ring.Register(imp.ID, imp.Public); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("Sybil re-registration accepted: %v", err)
	}
}

func TestRegisterMalformedKey(t *testing.T) {
	ring := NewRing()
	if err := ring.Register(1, []byte("short")); !errors.Is(err, ErrShortKey) {
		t.Fatalf("want ErrShortKey, got %v", err)
	}
}

// TestRegisterKeepsItsOwnCopy: changing the key slice a caller
// registered does not change the key the ring verifies against.
func TestRegisterKeepsItsOwnCopy(t *testing.T) {
	kp := Deterministic(4, 4)
	pub := append([]byte(nil), kp.Public...)
	ring := NewRing()
	if err := ring.Register(kp.ID, pub); err != nil {
		t.Fatal(err)
	}
	pub[0] ^= 0xFF
	if err := ring.Verify(4, []byte("m"), kp.Sign([]byte("m"))); err != nil {
		t.Fatalf("mutating the registered slice corrupted the ring: %v", err)
	}
}

func TestDeregister(t *testing.T) {
	kp := Deterministic(9, 9)
	ring, _ := RingFor([]KeyPair{kp})
	if err := ring.Deregister(9); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 0 {
		t.Fatal("ring not empty after deregister")
	}
	if err := ring.Deregister(9); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("double deregister: %v", err)
	}
}

func TestDeterministicReproducible(t *testing.T) {
	a := Deterministic(5, 77)
	b := Deterministic(5, 77)
	c := Deterministic(6, 77)
	d := Deterministic(5, 78)
	if string(a.Public) != string(b.Public) {
		t.Fatal("deterministic keys differ for same (id, seed)")
	}
	if string(a.Public) == string(c.Public) || string(a.Public) == string(d.Public) {
		t.Fatal("deterministic keys collide across ids/seeds")
	}
}

func TestRingForRegistersEveryPair(t *testing.T) {
	pairs := []KeyPair{Deterministic(9, 1), Deterministic(2, 1), Deterministic(5, 1)}
	ring, err := RingFor(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() != len(pairs) {
		t.Fatalf("Len = %d, want %d", ring.Len(), len(pairs))
	}
	msg := []byte("ring membership")
	for i, kp := range pairs {
		if err := ring.Verify(kp.ID, msg, kp.Sign(msg)); err != nil {
			t.Fatalf("%v does not verify its own signature: %v", kp.ID, err)
		}
		other := pairs[(i+1)%len(pairs)]
		if err := ring.Verify(other.ID, msg, kp.Sign(msg)); err == nil {
			t.Fatalf("%v's signature verified as %v's", kp.ID, other.ID)
		}
	}
}

func TestRingForDuplicateFails(t *testing.T) {
	_, err := RingFor([]KeyPair{Deterministic(1, 1), Deterministic(1, 2)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(17).String() != "n17" {
		t.Fatalf("NodeID.String = %q", NodeID(17).String())
	}
}

func TestQuickSignVerify(t *testing.T) {
	kp := Deterministic(11, 123)
	ring, _ := RingFor([]KeyPair{kp})
	f := func(msg []byte) bool {
		return ring.Verify(11, msg, kp.Sign(msg)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
