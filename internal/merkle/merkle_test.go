package merkle

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/twoldag/twoldag/internal/digest"
)

func leavesOf(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestRootEmpty(t *testing.T) {
	if !Root(nil).IsZero() {
		t.Fatal("empty root should be zero digest")
	}
}

func TestRootSingleLeaf(t *testing.T) {
	got := Root(leavesOf("only"))
	want := LeafHash([]byte("only"))
	if got != want {
		t.Fatalf("single-leaf root = %s, want leaf hash %s", got, want)
	}
}

func TestRootTwoLeaves(t *testing.T) {
	l := leavesOf("a", "b")
	want := NodeHash(LeafHash([]byte("a")), LeafHash([]byte("b")))
	if got := Root(l); got != want {
		t.Fatalf("two-leaf root mismatch: %s vs %s", got, want)
	}
}

func TestRootOddPromotion(t *testing.T) {
	// Three leaves: root = H(H(a,b), c-leaf) because c is promoted.
	a, b, c := LeafHash([]byte("a")), LeafHash([]byte("b")), LeafHash([]byte("c"))
	want := NodeHash(NodeHash(a, b), c)
	if got := Root(leavesOf("a", "b", "c")); got != want {
		t.Fatalf("odd promotion root mismatch")
	}
}

func TestRootDeterministicAndOrderSensitive(t *testing.T) {
	r1 := Root(leavesOf("a", "b", "c", "d"))
	r2 := Root(leavesOf("a", "b", "c", "d"))
	r3 := Root(leavesOf("b", "a", "c", "d"))
	if r1 != r2 {
		t.Fatal("root not deterministic")
	}
	if r1 == r3 {
		t.Fatal("root insensitive to leaf order")
	}
}

func TestLeafInteriorDomainSeparation(t *testing.T) {
	// A leaf equal to the encoding of an interior node must not collide.
	a, b := LeafHash([]byte("a")), LeafHash([]byte("b"))
	interior := NodeHash(a, b)
	fakeLeaf := append(append([]byte{}, a[:]...), b[:]...)
	if LeafHash(fakeLeaf) == interior {
		t.Fatal("leaf/interior domain separation broken")
	}
}

func TestRootOfBodyChunking(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 2500)
	r1, err := RootOfBody(body, 1000)
	if err != nil {
		t.Fatalf("RootOfBody: %v", err)
	}
	want := Root([][]byte{body[:1000], body[1000:2000], body[2000:]})
	if r1 != want {
		t.Fatal("RootOfBody chunking mismatch")
	}
	if _, err := RootOfBody(body, 0); err == nil {
		t.Fatal("expected error on zero leaf size")
	}
}

// referenceRootOfBody is M(b^d) built the long way: the body cut by
// split, each leaf's 0x00 ‖ chunk preimage copied out and hashed whole,
// and the levels reduced into fresh slices.
func referenceRootOfBody(body []byte, leafSize int) digest.Digest {
	chunks := split(body, leafSize)
	if len(chunks) == 0 {
		return digest.Digest{}
	}
	level := make([]digest.Digest, len(chunks))
	for i, c := range chunks {
		level[i] = sha256.Sum256(append([]byte{0x00}, c...))
	}
	for len(level) > 1 {
		level = reduce(level)
	}
	return level[0]
}

// TestRootOfBodyMatchesSplitRoot checks RootOfBody against the
// reference for every body length from 0 to 9 leaves and a byte, at
// leaf sizes on both sides of DefaultLeafSize: every body crosses from
// the stack-held leaf level (up to stackLeaves leaves) to the heap.
func TestRootOfBodyMatchesSplitRoot(t *testing.T) {
	for _, leaf := range []int{1, 33, DefaultLeafSize, 4 * DefaultLeafSize} {
		body := make([]byte, (stackLeaves+1)*leaf+1)
		rand.New(rand.NewSource(int64(leaf))).Read(body)
		for n := 0; n <= len(body); n++ {
			got, err := RootOfBody(body[:n], leaf)
			if err != nil {
				t.Fatalf("leaf %d, body %d: %v", leaf, n, err)
			}
			if want := referenceRootOfBody(body[:n], leaf); got != want {
				t.Fatalf("leaf %d, body %d: RootOfBody %s, reference %s", leaf, n, got, want)
			}
		}
	}
}

// TestRootOfBodyAllocs pins RootOfBody at zero allocations for bodies
// of up to stackLeaves leaves and at one — the level grown onto the
// heap — past them.
func TestRootOfBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, leaf := range []int{33, DefaultLeafSize} {
		body := make([]byte, (stackLeaves+1)*leaf)
		for _, n := range []int{1, leaf, 3*leaf + 1, stackLeaves * leaf} {
			if got := testing.AllocsPerRun(20, func() { RootOfBody(body[:n], leaf) }); got != 0 {
				t.Errorf("leaf %d, body %d: %v allocations, want 0", leaf, n, got)
			}
		}
		if got := testing.AllocsPerRun(20, func() { RootOfBody(body, leaf) }); got != 1 {
			t.Errorf("leaf %d, body of %d leaves: %v allocations, want 1", leaf, stackLeaves+1, got)
		}
	}
}

func TestRootOfBodyEmpty(t *testing.T) {
	r, err := RootOfBody(nil, 1024)
	if err != nil {
		t.Fatalf("RootOfBody(nil): %v", err)
	}
	if !r.IsZero() {
		t.Fatal("empty body should yield zero root")
	}
}

func TestNewTreeErrors(t *testing.T) {
	if _, err := NewTree(nil); err == nil {
		t.Fatal("NewTree(nil) should fail")
	}
	if _, err := NewTreeFromBody(nil, 64); err == nil {
		t.Fatal("NewTreeFromBody(nil) should fail")
	}
	if _, err := NewTreeFromBody([]byte("x"), -1); err == nil {
		t.Fatal("NewTreeFromBody with bad leaf size should fail")
	}
}

func TestTreeRootMatchesRoot(t *testing.T) {
	for n := 1; n <= 17; n++ {
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = []byte{byte(i), byte(n)}
		}
		tr, err := NewTree(leaves)
		if err != nil {
			t.Fatalf("NewTree(%d): %v", n, err)
		}
		if tr.Root() != Root(leaves) {
			t.Fatalf("Tree root disagrees with Root for %d leaves", n)
		}
		if tr.NumLeaves() != n {
			t.Fatalf("NumLeaves = %d, want %d", tr.NumLeaves(), n)
		}
	}
}

func TestProofAllLeavesAllSizes(t *testing.T) {
	for n := 1; n <= 16; n++ {
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = []byte{byte(i * 3)}
		}
		tr, err := NewTree(leaves)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p, err := tr.Proof(i)
			if err != nil {
				t.Fatalf("Proof(%d/%d): %v", i, n, err)
			}
			if err := p.Verify(tr.Root(), leaves[i]); err != nil {
				t.Fatalf("Verify(%d/%d): %v", i, n, err)
			}
		}
	}
}

func TestProofRejectsWrongLeaf(t *testing.T) {
	leaves := leavesOf("a", "b", "c", "d", "e")
	tr, _ := NewTree(leaves)
	p, _ := tr.Proof(2)
	if err := p.Verify(tr.Root(), []byte("not-c")); err == nil {
		t.Fatal("proof verified against wrong leaf")
	}
}

func TestProofRejectsWrongRoot(t *testing.T) {
	leaves := leavesOf("a", "b", "c")
	tr, _ := NewTree(leaves)
	p, _ := tr.Proof(0)
	bad := digest.Sum([]byte("bad root"))
	if err := p.Verify(bad, []byte("a")); err == nil {
		t.Fatal("proof verified against wrong root")
	}
}

func TestProofIndexOutOfRange(t *testing.T) {
	tr, _ := NewTree(leavesOf("a"))
	if _, err := tr.Proof(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := tr.Proof(1); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestQuickProofRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		leaves := make([][]byte, n)
		r := rand.New(rand.NewSource(seed))
		for i := range leaves {
			leaves[i] = make([]byte, 1+r.Intn(40))
			r.Read(leaves[i])
		}
		tr, err := NewTree(leaves)
		if err != nil {
			return false
		}
		i := rng.Intn(n)
		p, err := tr.Proof(i)
		if err != nil {
			return false
		}
		return p.Verify(tr.Root(), leaves[i]) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBodyMutationChangesRoot(t *testing.T) {
	f := func(body []byte, flip uint16) bool {
		if len(body) == 0 {
			return true
		}
		r1, err := RootOfBody(body, 64)
		if err != nil {
			return false
		}
		mut := append([]byte{}, body...)
		mut[int(flip)%len(mut)] ^= 0xFF
		r2, err := RootOfBody(mut, 64)
		if err != nil {
			return false
		}
		return r1 != r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
