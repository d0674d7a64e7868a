// Package block implements 2LDAG data blocks (paper Sec. III-B, Fig. 2).
//
// A block has a header and a body. The body is the C bits of sensed data
// a node collected; the header carries Version, Time, the Merkle root of
// the body, the Digests field Δ (hash of the node's previous header plus
// the latest header digest received from each neighbor), a proof-of-work
// Nonce (Eq. 5) and a Signature (Eq. 6).
//
// Deviation from the paper's figure: headers additionally carry the
// origin node ID and a per-node sequence number. The paper identifies
// blocks as b_{i,t} — origin and position are implicit in its notation —
// but any executable implementation needs them on the wire to look up
// the signer's public key and to answer GetDigest(b^h, v) queries. The
// analytic SizeModel ignores these bookkeeping fields, exactly as the
// paper's cost model does.
//
// # Sealed headers and blocks
//
// Header identity — H(b^h) — is needed on every audit hop, so Hash
// memoizes its result inside the header. A header whose hash has been
// memoized is "sealed": it MUST NOT be mutated afterwards, or its
// cached identity goes stale. The rules are:
//
//   - Params.Build returns a sealed block (header hash and body Merkle
//     root both memoized at seal time).
//   - Stores (ledger.Store, ledger.TrustStore) only hold and hand out
//     sealed values, by shared reference — readers must treat them as
//     immutable.
//   - To mutate a header or block (e.g. the attack library forging
//     replies), take a Clone first: clones carry no memo and are free
//     to change.
//
// Hash's lazy memoization writes to the header, so the first Hash call
// on a given header must not race with other accesses; sealing at
// construction time (Build, store insertion) makes all subsequent
// concurrent reads safe.
package block

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"weak"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/merkle"
	"github.com/twoldag/twoldag/internal/pow"
)

// CurrentVersion is the protocol version stamped into new headers.
const CurrentVersion uint32 = 1

// Sentinel validation errors.
var (
	ErrRootMismatch   = errors.New("block: merkle root does not match body")
	ErrPowUnsatisfied = errors.New("block: nonce does not satisfy difficulty")
	ErrBadVersion     = errors.New("block: unsupported version")
	ErrNoDigest       = errors.New("block: digest not present in header")
	ErrBodyTooLarge   = errors.New("block: body exceeds the decoder limit")
)

// DigestRef is one entry of the Digests field Δ: the digest of the latest
// header generated by Node. The first entry of a header's Digests always
// refers to the origin's previous block (zero digest for a genesis
// block).
type DigestRef struct {
	Node   identity.NodeID
	Digest digest.Digest
}

// Header is a 2LDAG block header.
type Header struct {
	Version   uint32
	Time      uint32 // generation time (slot index in the simulator)
	Origin    identity.NodeID
	Seq       uint32 // position of this block in the origin's log; 0 = genesis
	Root      digest.Digest
	Digests   []DigestRef // Δ: [0] = own previous header, rest = neighbor digests
	Nonce     uint32
	Signature []byte // Ed25519 over SigPreimage

	// hash memoizes Hash(); valid when hashOK. A header with a memoized
	// hash is sealed and must not be mutated (see the package doc).
	hash   digest.Digest
	hashOK bool
}

// Block couples a header with its body.
type Block struct {
	Header Header
	Body   []byte

	// bodyRoot memoizes the Merkle root of Body for bodyLeafSize-byte
	// leaves; valid when bodyRootOK. Set at seal time (Params.Build) so
	// repeated validations of an immutable block skip the O(C) hashing.
	bodyRoot     digest.Digest
	bodyLeafSize int
	bodyRootOK   bool
}

// Ref identifies a block by origin and sequence number (the paper's
// b_{i,t} pair).
type Ref struct {
	Node identity.NodeID
	Seq  uint32
}

// String renders a Ref as "n3#7".
func (r Ref) String() string {
	return fmt.Sprintf("%v#%d", r.Node, r.Seq)
}

// Ref returns the block's own reference.
func (h *Header) Ref() Ref {
	return Ref{Node: h.Origin, Seq: h.Seq}
}

// Every preimage of a header — its wire form for Hash, the Eq. 5
// prefix and the Eq. 6 preimage — is built in a scratch array on the
// caller's stack, sized for a Δ of up to stackDigestRefs entries (own
// previous + 8 neighbours). A larger Δ grows onto the heap through the
// same append.
const (
	stackDigestRefs = 9
	stackRefsSize   = stackDigestRefs * (4 + digest.Size)
)

// Hash computes H(b^h): the digest a node transmits to its neighbors
// after generating the block. It covers every header field including the
// signature.
//
// The result is memoized inside the header, sealing it: once Hash has
// been called the header must be treated as immutable (mutate a Clone
// instead). The memoizing first call must not race with concurrent
// access; on a sealed header Hash is a read-only O(1) lookup and safe
// to call concurrently.
func (h *Header) Hash() digest.Digest {
	if h.hashOK {
		return h.hash
	}
	var scratch [4*6 + digest.Size + stackRefsSize + 4 + identity.SignatureSize]byte
	h.hash = digest.Sum(AppendEncodeHeader(scratch[:0], h))
	h.hashOK = true
	return h.hash
}

// Seal memoizes the header hash (see Hash) and returns it. Sealing an
// already-sealed header is a no-op.
func (h *Header) Seal() digest.Digest { return h.Hash() }

// Sealed reports whether the header hash has been memoized.
func (h *Header) Sealed() bool { return h.hashOK }

// powScratch holds the preimage prefix of Eq. 5 with room for the
// nonce, so pow.VerifyPrefix completes the preimage in place.
type powScratch [digest.Size + stackRefsSize + pow.NonceSize]byte

// appendPowPrefix appends the preimage prefix of Eq. 5,
// H(M(b^d), Δ, nonce) ≤ ρ, to b; the pow package appends the nonce.
func (h *Header) appendPowPrefix(b []byte) []byte {
	b = append(b, h.Root[:]...)
	return appendDigestRefs(b, h.Digests)
}

// powSolved reports whether h's nonce solves Eq. 5 at diff.
func (h *Header) powSolved(diff pow.Difficulty) bool {
	var scratch powScratch
	return pow.VerifyPrefix(h.appendPowPrefix(scratch[:0]), h.Nonce, diff)
}

// SigPreimage returns the digest signed per Eq. 6:
// s = E(H(v, t, M(b^d), Δ, n), sk). The origin and sequence fields are
// folded in so a signature cannot be replayed onto a different position
// in the log.
func (h *Header) SigPreimage() digest.Digest {
	// Five uint32 fields, the root and Δ.
	var scratch [4*5 + digest.Size + stackRefsSize]byte
	buf := appendUint32(scratch[:0], h.Version)
	buf = appendUint32(buf, h.Time)
	buf = appendUint32(buf, uint32(h.Origin))
	buf = appendUint32(buf, h.Seq)
	buf = append(buf, h.Root[:]...)
	buf = appendDigestRefs(buf, h.Digests)
	buf = appendUint32(buf, h.Nonce)
	return digest.Sum(buf)
}

// DigestOf returns the digest recorded for node v in Δ — the paper's
// GetDigest(b^h, v). Zero-digest genesis placeholders are not reported.
func (h *Header) DigestOf(v identity.NodeID) (digest.Digest, bool) {
	for _, ref := range h.Digests {
		if ref.Node == v && !ref.Digest.IsZero() {
			return ref.Digest, true
		}
	}
	return digest.Digest{}, false
}

// Contains reports whether d appears anywhere in Δ, i.e. whether this
// block is a DAG child of the block whose header hashes to d.
func (h *Header) Contains(d digest.Digest) bool {
	if d.IsZero() {
		return false
	}
	for _, ref := range h.Digests {
		if ref.Digest == d {
			return true
		}
	}
	return false
}

// PrevDigest returns the origin's previous-header digest (zero for a
// genesis block).
func (h *Header) PrevDigest() digest.Digest {
	for _, ref := range h.Digests {
		if ref.Node == h.Origin {
			return ref.Digest
		}
	}
	return digest.Digest{}
}

// Clone returns a deep, mutable copy of the header. The copy carries no
// memoized hash, so it may be freely mutated (and re-hashed) without
// affecting the original.
func (h *Header) Clone() *Header {
	c := *h
	c.Digests = append([]DigestRef(nil), h.Digests...)
	c.Signature = append([]byte(nil), h.Signature...)
	c.hash, c.hashOK = digest.Digest{}, false
	return &c
}

// CloneSealed returns a deep copy that is already sealed: the memoized
// hash is carried over (computed first if needed). Use it when copying
// a header into a store that shares references with concurrent readers.
func (h *Header) CloneSealed() *Header {
	hh := h.Hash()
	c := h.Clone()
	c.hash, c.hashOK = hh, true
	return c
}

// Clone returns a deep, mutable copy of the block; like Header.Clone it
// drops every memo so the copy may be mutated.
func (b *Block) Clone() *Block {
	return &Block{Header: *b.Header.Clone(), Body: append([]byte(nil), b.Body...)}
}

// WithoutBody returns a copy of b that holds no body: it shares b's
// header — Δ, signature and memoized hash — and keeps its body-root
// memo. It is what a store keeps of a block whose body lives on disk;
// like b it is read-only.
func (b *Block) WithoutBody() *Block {
	c := *b
	c.Body = nil
	return &c
}

// Sealed reports whether the block is fully sealed: header hash and
// body root both memoized. Sealed blocks are immutable by contract and
// may be shared across goroutines without copying.
func (b *Block) Sealed() bool { return b.Header.Sealed() && b.bodyRootOK }

// CachedBodyRoot returns the body root memoized at seal time, if it was
// computed with the given leaf size. Blocks decoded from the wire carry
// no memo and always report false.
func (b *Block) CachedBodyRoot(leafSize int) (digest.Digest, bool) {
	if b.bodyRootOK && b.bodyLeafSize == leafSize {
		return b.bodyRoot, true
	}
	return digest.Digest{}, false
}

// sealBody memoizes the body root (see CachedBodyRoot).
func (b *Block) sealBody(root digest.Digest, leafSize int) {
	b.bodyRoot, b.bodyLeafSize, b.bodyRootOK = root, leafSize, true
}

// Params bundles the consensus constants every node agrees on.
type Params struct {
	Version    uint32
	Difficulty pow.Difficulty
	// LeafSize is the Merkle chunk size for block bodies, in bytes.
	LeafSize int
}

// DefaultParams returns the parameters used across the repository:
// protocol version 1, 8-bit difficulty, 1 KiB Merkle leaves.
func DefaultParams() Params {
	return Params{
		Version:    CurrentVersion,
		Difficulty: pow.DefaultDifficulty,
		LeafSize:   merkle.DefaultLeafSize,
	}
}

// BodyRoot computes the Merkle root M(b^d) of a body under p.
func (p Params) BodyRoot(body []byte) (digest.Digest, error) {
	return merkle.RootOfBody(body, p.LeafSize)
}

// BlockBodyRoot returns M(b^d) for a block, using the root memoized at
// seal time when it matches p's leaf size. Sealed blocks are immutable,
// so the memo stays authoritative; unsealed blocks (e.g. decoded from
// the wire) are hashed from scratch.
func (p Params) BlockBodyRoot(b *Block) (digest.Digest, error) {
	if root, ok := b.CachedBodyRoot(p.LeafSize); ok {
		return root, nil
	}
	return p.BodyRoot(b.Body)
}

// SealBlock fully seals a block in place: the header hash is memoized
// and the body Merkle root is computed under p and memoized. Use it
// before storing blocks that did not come from Build (segment
// restores, wire decodes), so later validations skip the O(C) body
// hash. The block must not be shared with other goroutines yet, and
// must not be mutated afterwards.
func (p Params) SealBlock(b *Block) error {
	root, err := p.BodyRoot(b.Body)
	if err != nil {
		return fmt.Errorf("block: sealing body root: %w", err)
	}
	b.sealBody(root, p.LeafSize)
	b.Header.Seal()
	return nil
}

// Build assembles, mines and signs a block. digests must be the Δ field
// in final order: own-previous first (zero digest for genesis), then the
// latest digest cached for each neighbor. A body longer than MaxBodyLen
// is refused: no decoder, WAL replay or peer could read the block back.
func (p Params) Build(key identity.KeyPair, t, seq uint32, body []byte, digests []DigestRef) (*Block, error) {
	if len(body) > MaxBodyLen {
		return nil, fmt.Errorf("%w: %d > %d bytes", ErrBodyTooLarge, len(body), MaxBodyLen)
	}
	root, err := p.BodyRoot(body)
	if err != nil {
		return nil, fmt.Errorf("block: computing body root: %w", err)
	}
	h := Header{
		Version: p.Version,
		Time:    t,
		Origin:  key.ID,
		Seq:     seq,
		Root:    root,
		Digests: append([]DigestRef(nil), digests...),
	}
	var scratch powScratch
	nonce, _, err := pow.SearchPrefix(h.appendPowPrefix(scratch[:0]), p.Difficulty, 0)
	if err != nil {
		return nil, fmt.Errorf("block: mining nonce: %w", err)
	}
	h.Nonce = nonce
	sig := h.SigPreimage()
	h.Signature = key.Sign(sig[:])
	b := &Block{Header: h, Body: append([]byte(nil), body...)}
	b.Header.Seal()
	b.sealBody(root, p.LeafSize)
	return b, nil
}

// ValidateHeader checks everything that can be checked without the body:
// version, proof-of-work (Eq. 5) and signature (Eq. 6) against the ring.
func (p Params) ValidateHeader(h *Header, ring *identity.Ring) error {
	if err := p.validateUnsigned(h); err != nil {
		return err
	}
	sig := h.SigPreimage()
	if err := ring.Verify(h.Origin, sig[:], h.Signature); err != nil {
		return fmt.Errorf("block: header signature: %w", err)
	}
	return nil
}

// validateUnsigned runs every check of ValidateHeader but the
// signature's: version and proof-of-work.
func (p Params) validateUnsigned(h *Header) error {
	if h.Version != p.Version {
		return fmt.Errorf("%w: %d, want %d", ErrBadVersion, h.Version, p.Version)
	}
	if !h.powSolved(p.Difficulty) {
		return fmt.Errorf("%w: difficulty %d", ErrPowUnsatisfied, p.Difficulty)
	}
	return nil
}

// Validate performs the full check a validator runs after retrieving a
// block (Algorithm 3 line 3): header checks plus M(b^d) == Root.
func (p Params) Validate(b *Block, ring *identity.Ring) error {
	if err := p.ValidateHeader(&b.Header, ring); err != nil {
		return err
	}
	root, err := p.BlockBodyRoot(b)
	if err != nil {
		return fmt.Errorf("block: computing body root: %w", err)
	}
	if root != b.Header.Root {
		return fmt.Errorf("%w: computed %s, header %s", ErrRootMismatch, root, b.Header.Root)
	}
	return nil
}

// VerifyChain reports whether blocks — oldest first, one origin's
// consecutive entries, each through SealBlock — are authenticated by
// the newest one's signature: every block passes each check of
// Validate but the signature, shares the newest block's origin and
// links to its predecessor through PrevDigest (the first to prev,
// unless nil), and the newest signature verifies against ring. Each
// SigPreimage covers Δ, whose PrevDigest hashes the whole predecessor
// header, signature included, so by SHA-256 collision resistance the
// newest signature commits to every older header. This differs from
// validating each block only where block k is badly signed and its
// validly signed successor references it — which only the key holder
// can produce. False does not say which block is at fault.
func (p Params) VerifyChain(prev *Header, blocks []*Block, ring *identity.Ring) bool {
	if len(blocks) == 0 {
		return true
	}
	head := &blocks[len(blocks)-1].Header
	for _, b := range blocks {
		h := &b.Header
		if h.Origin != head.Origin || h.Version != p.Version {
			return false
		}
		if prev != nil && h.PrevDigest() != prev.Hash() {
			return false
		}
		if root, ok := b.CachedBodyRoot(p.LeafSize); !ok || root != h.Root {
			return false
		}
		if !h.powSolved(p.Difficulty) {
			return false
		}
		prev = h
	}
	sig := head.SigPreimage()
	return ring.Verify(head.Origin, sig[:], head.Signature) == nil
}

// verifyShardCount shards the cache by digest prefix so concurrent
// audit fan-out (AuditMany, parallel simulator slots) does not
// serialize on a single RWMutex. Must be a power of two; digests are
// uniformly distributed hashes, so the first byte balances shards.
const verifyShardCount = 32

// VerifyCache remembers header digests that have already passed
// ValidateHeader, so each distinct header is verified once by whoever
// holds the cache rather than once per audit hop. The header hash
// covers every field including the signature, so the digest is a sound
// cache key: a forged or altered header misses and is checked in full.
//
// It also knows the signers of its process (Register): each engine
// sharing the cache registers the key it signs with and which headers
// of its log it sealed and published itself, and a header one of them
// sealed enters the cache without its signature being verified again
// (see ValidateHeaderCached). The table holds signers weakly, so it
// keeps no engine, and no log an engine reads, alive.
//
// It also interns header objects (Intern): a standalone header decoded
// or copied by one holder resolves to the one live header with the
// same hash, so the holders' H_i share it instead of keeping a copy
// each. The table holds headers weakly, so it keeps alive none that no
// one else references. Interning needs no prior verification: two
// headers with one hash are byte-identical, so a check reads the same
// bytes through either pointer, and a forged header only ever resolves
// to itself (or to an identical forgery).
//
// A cache is only valid for one (Params, Ring) pair — do not share one
// across nodes with different consensus constants or key registries.
// Within that pair the rule is one cache per process, for verdicts,
// signers and header objects alike: the simulator shares one across all
// its engines and an in-process Cluster across all its devices, while a
// Host, which runs one device per process, holds one for that device.
// It is safe for concurrent use; verdicts and interned headers are
// sharded by digest prefix so readers on different headers rarely
// contend. Signers sit in one table: it is read only on a verdict's
// miss.
type VerifyCache struct {
	shards [verifyShardCount]verifyShard

	signersMu sync.RWMutex
	signers   map[identity.NodeID]weak.Pointer[Signer]
}

type verifyShard struct {
	mu       sync.RWMutex
	ok       map[digest.Digest]struct{}
	interned map[digest.Digest]weak.Pointer[Header]
}

// Signer is what a VerifyCache knows of one signer in its process: Key,
// the key it signs with, and Sealed, which returns the hash of the header
// the signer sealed and published itself at sequence number seq, and
// false for any seq where it did not, whatever its log holds there.
// Sealed must be safe for concurrent use and must not block on the
// caller's locks.
type Signer struct {
	Key    *identity.KeyPair
	Sealed func(seq uint32) (digest.Digest, bool)
}

// NewVerifyCache returns an empty cache.
func NewVerifyCache() *VerifyCache {
	c := &VerifyCache{signers: make(map[identity.NodeID]weak.Pointer[Signer])}
	for i := range c.shards {
		c.shards[i].ok = make(map[digest.Digest]struct{})
		c.shards[i].interned = make(map[digest.Digest]weak.Pointer[Header])
	}
	return c
}

func (c *VerifyCache) shard(d digest.Digest) *verifyShard {
	return &c.shards[d[0]&(verifyShardCount-1)]
}

// Len returns the number of cached valid headers.
func (c *VerifyCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.ok)
		s.mu.RUnlock()
	}
	return n
}

func (c *VerifyCache) has(d digest.Digest) bool {
	s := c.shard(d)
	s.mu.RLock()
	_, ok := s.ok[d]
	s.mu.RUnlock()
	return ok
}

func (c *VerifyCache) add(d digest.Digest) {
	s := c.shard(d)
	s.mu.Lock()
	s.ok[d] = struct{}{}
	s.mu.Unlock()
}

// Interned returns the live interned header hashing to d, or nil.
// Callers must treat it as read-only: other holders share it.
func (c *VerifyCache) Interned(d digest.Digest) *Header {
	s := c.shard(d)
	s.mu.RLock()
	h := s.interned[d].Value()
	s.mu.RUnlock()
	return h
}

// Intern returns the canonical header for h: the live interned header
// with h's hash if there is one, else h itself, sealed and registered.
// h must be a standalone header — its own allocation, not one embedded
// in a Block — or its table entry would keep the block's body alive
// wherever the header is shared. The caller must not use h after a
// call that returns another header, and must treat the result as
// read-only. The entry is dropped once the header is collected.
func (c *VerifyCache) Intern(h *Header) *Header {
	d := h.Hash()
	if canon := c.Interned(d); canon != nil {
		return canon
	}
	s := c.shard(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if canon := s.interned[d].Value(); canon != nil {
		return canon
	}
	s.interned[d] = weak.Make(h)
	runtime.AddCleanup(h, c.dropInterned, d)
	return h
}

// dropInterned deletes d's entry once its header has been collected.
// A live entry is a later header with the same hash and stays.
func (c *VerifyCache) dropInterned(d digest.Digest) {
	s := c.shard(d)
	s.mu.Lock()
	if wp, ok := s.interned[d]; ok && wp.Value() == nil {
		delete(s.interned, d)
	}
	s.mu.Unlock()
}

// Register records s as the signer of s.Key.ID's headers in this
// process, in place of any earlier one. The cache holds s weakly: its
// entry reads as absent once s is collected, so whoever registers s
// keeps it reachable for as long as it signs — an engine holds its own
// — and the cache keeps nothing s reaches alive.
func (c *VerifyCache) Register(s *Signer) {
	c.signersMu.Lock()
	c.signers[s.Key.ID] = weak.Make(s)
	c.signersMu.Unlock()
}

// sealedHere reports whether h, which hashes to hh, is a header the
// signer registered for h.Origin sealed itself, with the key ring holds
// for h.Origin.
func (c *VerifyCache) sealedHere(h *Header, hh digest.Digest, ring *identity.Ring) bool {
	c.signersMu.RLock()
	sg := c.signers[h.Origin].Value()
	c.signersMu.RUnlock()
	if sg == nil {
		return false
	}
	d, ok := sg.Sealed(h.Seq)
	return ok && d == hh && ring.Holds(*sg.Key)
}

// ValidateHeaderCached is ValidateHeader with a positive-result cache:
// headers whose digest is already in cache are accepted immediately.
// Only successful validations are cached (a header that fails could be
// retransmitted correctly later). A nil cache degrades to the uncached
// check.
//
// On a miss, a header sealed in this process skips the signature check
// and nothing else: one whose hash is the hash its origin's registered
// signer (Register) reports for h.Seq, where ring holds that signer's
// key for h.Origin. Its version and proof-of-work are checked as any
// header's are, and its verdict is cached the same way. This is sound
// for the reason VerifyChain is: the hash covers every field, signature
// included, so by SHA-256 collision resistance h is byte for byte the
// header that signer signed with the key ring holds, and verifying the
// signature cannot fail. Forged, corrupted, recovered, injected and
// other processes' headers miss that lookup and are checked in full.
func (p Params) ValidateHeaderCached(h *Header, ring *identity.Ring, cache *VerifyCache) error {
	if cache == nil {
		return p.ValidateHeader(h, ring)
	}
	hh := h.Hash()
	if cache.has(hh) {
		return nil
	}
	var err error
	if cache.sealedHere(h, hh, ring) {
		err = p.validateUnsigned(h)
	} else {
		err = p.ValidateHeader(h, ring)
	}
	if err != nil {
		return err
	}
	cache.add(hh)
	return nil
}
