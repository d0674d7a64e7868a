// Package identity provides node identifiers, Ed25519 key pairs and a
// thread-safe public-key registry for 2LDAG networks.
//
// The paper assumes (Sec. III-A, IV-D) that node registration is handled
// out of band and that "nodes are aware of the topology and each other's
// public key"; the Ring type is that shared registry. Header signatures
// (paper Eq. 6) are produced with a node's private key and checked by
// validators against the ring, which is what defeats Sybil and
// man-in-the-middle attackers (Sec. IV-D3/D4).
package identity

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/twoldag/twoldag/internal/digest"
)

// NodeID identifies a physical IoT node (the index i ∈ V of the paper).
type NodeID uint32

// String renders the ID as "n<index>".
func (id NodeID) String() string {
	return fmt.Sprintf("n%d", uint32(id))
}

// SignatureSize is the size in bytes of a real Ed25519 signature. Note
// the paper's analytic size model uses f_s = 256 bits; the harness
// accounts with the model while the runtime carries real signatures.
const SignatureSize = ed25519.SignatureSize

// Sentinel errors for ring operations.
var (
	ErrUnknownNode  = errors.New("identity: unknown node")
	ErrDuplicateKey = errors.New("identity: node already registered")
	ErrBadSignature = errors.New("identity: signature verification failed")
	ErrShortKey     = errors.New("identity: malformed public key")
)

// KeyPair is a node's signing identity.
type KeyPair struct {
	ID      NodeID
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// Deterministic derives a reproducible key pair from (seed, id). Used by
// the simulator so experiment runs are bit-for-bit repeatable.
func Deterministic(id NodeID, seed int64) KeyPair {
	var buf [12]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint32(buf[8:], uint32(id))
	d := digest.Sum([]byte("2ldag/keyseed"), buf[:])
	priv := ed25519.NewKeyFromSeed(d[:])
	return KeyPair{ID: id, Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Sign signs msg with the node's private key.
func (kp KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(kp.private, msg)
}

// Valid reports whether the key pair holds usable key material.
func (kp KeyPair) Valid() bool {
	return len(kp.Public) == ed25519.PublicKeySize && len(kp.private) == ed25519.PrivateKeySize
}

// Ring is a concurrency-safe registry mapping node IDs to public keys.
// The zero value is ready to use.
type Ring struct {
	mu   sync.RWMutex
	keys map[NodeID]ed25519.PublicKey
}

// NewRing returns an empty registry.
func NewRing() *Ring {
	return &Ring{}
}

// Register adds a node's public key. Registering an already-known node
// fails with ErrDuplicateKey: re-keying requires explicit Deregister,
// which keeps a Sybil attacker from silently replacing identities.
func (r *Ring) Register(id NodeID, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: %d bytes", ErrShortKey, len(pub))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys == nil {
		r.keys = make(map[NodeID]ed25519.PublicKey)
	}
	if _, ok := r.keys[id]; ok {
		return fmt.Errorf("%w: %v", ErrDuplicateKey, id)
	}
	r.keys[id] = append(ed25519.PublicKey(nil), pub...)
	return nil
}

// Deregister removes a node (dynamic-membership support; paper Sec. VII).
func (r *Ring) Deregister(id NodeID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.keys[id]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	delete(r.keys, id)
	return nil
}

// Verify checks sig over msg against id's registered key.
func (r *Ring) Verify(id NodeID, msg, sig []byte) error {
	r.mu.RLock()
	pub, ok := r.keys[id]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	if len(sig) != ed25519.SignatureSize || !ed25519.Verify(pub, msg, sig) {
		return fmt.Errorf("%w: node %v", ErrBadSignature, id)
	}
	return nil
}

// Holds reports whether the key registered for kp.ID is the one kp
// signs with: the public half of kp's private key, whatever kp.Public
// says, so a signature kp makes verifies against the ring exactly when
// Holds is true. It compares keys and checks no signature.
func (r *Ring) Holds(kp KeyPair) bool {
	if len(kp.private) != ed25519.PrivateKeySize {
		return false
	}
	r.mu.RLock()
	pub, ok := r.keys[kp.ID]
	r.mu.RUnlock()
	return ok && bytes.Equal(pub, kp.private[ed25519.SeedSize:])
}

// Len returns the number of registered nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// RingFor builds a ring from a set of key pairs, failing on duplicates.
func RingFor(pairs []KeyPair) (*Ring, error) {
	r := NewRing()
	for _, kp := range pairs {
		if err := r.Register(kp.ID, kp.Public); err != nil {
			return nil, err
		}
	}
	return r, nil
}
