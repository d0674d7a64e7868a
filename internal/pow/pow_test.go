package pow

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/twoldag/twoldag/internal/digest"
)

func TestMeetsZeroDifficulty(t *testing.T) {
	if !Meets(digest.Sum([]byte("anything")), 0) {
		t.Fatal("zero difficulty must accept every digest")
	}
}

func TestMeetsThreshold(t *testing.T) {
	d := digest.Digest{0x00, 0x7F} // exactly 9 leading zero bits
	if !Meets(d, 9) {
		t.Fatal("digest with 9 zero bits should meet difficulty 9")
	}
	if Meets(d, 10) {
		t.Fatal("digest with 9 zero bits should not meet difficulty 10")
	}
}

func TestSearchAndVerify(t *testing.T) {
	prefix := []byte("block header fields")
	nonce, d, err := SearchPrefix(prefix, 10, 0)
	if err != nil {
		t.Fatalf("SearchPrefix: %v", err)
	}
	if !Meets(d, 10) {
		t.Fatalf("returned digest %s does not meet difficulty", d.Hex())
	}
	if !VerifyPrefix(prefix, nonce, 10) {
		t.Fatal("VerifyPrefix rejected the found nonce")
	}
	if VerifyPrefix(append(prefix, 'x'), nonce, 10) {
		// With overwhelming probability a different prefix fails.
		t.Fatal("VerifyPrefix accepted nonce for a different prefix")
	}
}

func TestSearchReturnsSmallestNonce(t *testing.T) {
	prefix := []byte("smallest")
	nonce, _, err := SearchPrefix(prefix, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint32(0); n < nonce; n++ {
		if VerifyPrefix(prefix, n, 6) {
			t.Fatalf("nonce %d also solves but %d was returned", n, nonce)
		}
	}
}

func TestSearchExhausted(t *testing.T) {
	_, _, err := SearchPrefix([]byte("hard"), 64, 16)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
}

func TestAppendNonceLittleEndian(t *testing.T) {
	got := AppendNonce([]byte{0xAA}, 0x01020304)
	want := []byte{0xAA, 0x04, 0x03, 0x02, 0x01}
	if string(got) != string(want) {
		t.Fatalf("AppendNonce = %x, want %x", got, want)
	}
}

func TestDifficultyZeroTakesOneTry(t *testing.T) {
	for _, prefix := range [][]byte{nil, []byte("x"), make([]byte, 61), make([]byte, 200)} {
		nonce, d, err := SearchPrefix(prefix, 0, 1)
		if err != nil || nonce != 0 {
			t.Fatalf("len %d: nonce %d, err %v; want nonce 0 in one try", len(prefix), nonce, err)
		}
		if d != digest.Sum(AppendNonce(prefix, 0)) {
			t.Fatalf("len %d: digest is not H(prefix || 0)", len(prefix))
		}
	}
}

func TestMeanTriesNearTwoToTheDifficulty(t *testing.T) {
	// A try meets difficulty d with probability 2^-d, so the tries a
	// search spends average 2^d: 256 at d = 8. Over 128 prefixes the
	// mean's standard deviation is about 23, so [181, 362] (a factor of
	// sqrt 2 either way) holds at d = 8 and excludes d = 7 and d = 9.
	const prefixes = 128
	total := 0.0
	for i := 0; i < prefixes; i++ {
		nonce, _, err := SearchPrefix(binary.LittleEndian.AppendUint64(nil, uint64(i)), 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(nonce) + 1
	}
	if mean := total / prefixes; mean < 181 || mean > 362 {
		t.Fatalf("mean tries at difficulty 8 = %.1f, want about 256", mean)
	}
}

func TestQuickSearchSolutionsVerify(t *testing.T) {
	f := func(prefix []byte) bool {
		nonce, d, err := SearchPrefix(prefix, 4, 0)
		if err != nil {
			return false
		}
		return Meets(d, 4) && VerifyPrefix(prefix, nonce, 4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearchPrefixDifficulty8(b *testing.B) {
	prefix := []byte("benchmark prefix for pow search, difficulty 8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prefix[0] = byte(i)
		if _, _, err := SearchPrefix(prefix, 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyPrefix(b *testing.B) {
	prefix := []byte("benchmark verify")
	nonce, _, err := SearchPrefix(prefix, 8, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !VerifyPrefix(prefix, nonce, 8) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkHotpathSearchPrefix is the Eq. 5 grind at the default
// difficulty over seal-sized prefixes: 356 B is Root ‖ Δ of a block
// with 8 neighbors (Δ of 9), 392 B ends 8 bytes into a SHA-256 block,
// and 248 B (a Δ of 6) leaves a 56-byte tail, so every try compresses
// two final blocks. The prefix changes every iteration so ns/op
// averages over the ~256 expected tries instead of timing one lucky or
// unlucky nonce.
func BenchmarkHotpathSearchPrefix(b *testing.B) {
	for _, size := range []int{248, 356, 392} {
		b.Run(fmt.Sprintf("prefix=%dB", size), func(b *testing.B) {
			prefix := make([]byte, size)
			for i := range prefix {
				prefix[i] = byte(i * 7)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(prefix, uint64(i))
				if _, _, err := SearchPrefix(prefix, DefaultDifficulty, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// searchReference is the whole-buffer search SearchPrefix replaced:
// every try hashes prefix ‖ nonce from the first byte. It is the
// oracle the midstate search is compared against.
func searchReference(prefix []byte, diff Difficulty, maxTries uint64) (uint32, digest.Digest, bool) {
	if maxTries == 0 || maxTries > 1<<32 {
		maxTries = 1 << 32
	}
	for i := uint64(0); i < maxTries; i++ {
		d := digest.Sum(AppendNonce(prefix[:len(prefix):len(prefix)], uint32(i)))
		if Meets(d, diff) {
			return uint32(i), d, true
		}
	}
	return 0, digest.Digest{}, false
}

// checkAgainstReference fails unless SearchPrefix and the reference
// agree on solvability, nonce and digest.
func checkAgainstReference(t *testing.T, prefix []byte, diff Difficulty, maxTries uint64) {
	t.Helper()
	wantNonce, wantDigest, solvable := searchReference(prefix, diff, maxTries)
	nonce, d, err := SearchPrefix(prefix, diff, maxTries)
	if !solvable {
		if !errors.Is(err, ErrExhausted) {
			t.Fatalf("len %d diff %d tries %d: want ErrExhausted, got nonce %d, err %v", len(prefix), diff, maxTries, nonce, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("len %d diff %d tries %d: %v", len(prefix), diff, maxTries, err)
	}
	if nonce != wantNonce || d != wantDigest {
		t.Fatalf("len %d diff %d tries %d: got (%d, %s), reference (%d, %s)",
			len(prefix), diff, maxTries, nonce, d.Hex(), wantNonce, wantDigest.Hex())
	}
}

// TestSearchPrefixMatchesReference sweeps every prefix length 0–200 —
// which covers each len%64 where tail ‖ nonce ‖ padding fits one block
// (≤ 51), spills into a second (52–59) or where the nonce itself
// straddles the block boundary (60–63) — at difficulties 0/1/8/12,
// with an unbounded search and ones that exhaust after two tries (one
// nonce pair) and three (lane B of the second pair is out of bounds),
// on each lane.
func TestSearchPrefixMatchesReference(t *testing.T) {
	buf := make([]byte, 200)
	for i := range buf {
		buf[i] = byte(i*31 + 7)
	}
	forEachLane(t, func(t *testing.T) {
		for n := 0; n <= len(buf); n++ {
			for _, diff := range []Difficulty{0, 1, 8, 12} {
				if diff == 12 && n%64 != 0 && n%64 < 51 {
					continue // ~4096 tries each: keep the boundary lengths only
				}
				for _, maxTries := range []uint64{0, 2, 3} {
					checkAgainstReference(t, buf[:n], diff, maxTries)
				}
			}
		}
	})
}

// TestLanesMatchSHA256 compares each lane's digests of a nonce pair
// with crypto/sha256's over random midstates — zero to three random
// whole blocks — and every tail length 0–127 after them. Tails of 64
// and more add one whole block to the midstate; the rest of each tail
// makes a one-block final (≤ 51 bytes), a two-block one (52–63) and,
// at 60–63, a nonce that straddles the block boundary.
func TestLanesMatchSHA256(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 53))
	forEachLane(t, func(t *testing.T) {
		for tail := 0; tail < 2*sha256.BlockSize; tail++ {
			for blocks := 0; blocks < 4; blocks++ {
				prefix := make([]byte, blocks*sha256.BlockSize+tail)
				for i := range prefix {
					prefix[i] = byte(rng.Uint32())
				}
				var l lanes
				if err := l.absorb(prefix[:len(prefix)&^(sha256.BlockSize-1)]); err != nil {
					t.Fatal(err)
				}
				var padA, padB [2 * sha256.BlockSize]byte
				finalA, slotA := padFinal(&padA, prefix)
				finalB, slotB := padFinal(&padB, prefix)
				nonceA, nonceB := rng.Uint32(), rng.Uint32()
				binary.LittleEndian.PutUint32(slotA, nonceA)
				binary.LittleEndian.PutUint32(slotB, nonceB)
				var da, db [8]uint32
				if err := l.compress(finalA, finalB, &da, &db); err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					lane  string
					nonce uint32
					h     *[8]uint32
				}{{"A", nonceA, &da}, {"B", nonceB, &db}} {
					var got digest.Digest
					for i, w := range c.h {
						binary.BigEndian.PutUint32(got[4*i:], w)
					}
					if want := digest.Digest(sha256.Sum256(AppendNonce(prefix[:len(prefix):len(prefix)], c.nonce))); got != want {
						t.Fatalf("len %d lane %s nonce %d: got %s, crypto/sha256 %s", len(prefix), c.lane, c.nonce, got, want)
					}
				}
			}
		}
	})
}

// TestSearchPrefixAllocatesPerCallNotPerTry pins the grind's heap use,
// however many nonces it tries: none on the kernel lane, whose
// midstate, final blocks and digests live on the stack; on the
// portable lane the hasher and the one buffer its state is saved and
// read back in.
func TestSearchPrefixAllocatesPerCallNotPerTry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	prefix := make([]byte, 356)
	forEachLane(t, func(t *testing.T) {
		want := 2.0
		if useKernel {
			want = 0
		}
		for _, diff := range []Difficulty{0, 12} {
			if got := testing.AllocsPerRun(5, func() { SearchPrefix(prefix, diff, 0) }); got != want {
				t.Errorf("difficulty %d: %v allocations per search, want %v", diff, got, want)
			}
		}
	})
}

func FuzzSearchPrefixMatchesReference(f *testing.F) {
	for _, n := range []int{0, 51, 52, 55, 56, 59, 60, 63, 64, 128, 200} {
		f.Add(make([]byte, n), uint8(8), uint16(0))
	}
	f.Add([]byte("block header fields"), uint8(12), uint16(3))
	f.Fuzz(func(t *testing.T, prefix []byte, diff uint8, maxTries uint16) {
		// Difficulty ≤ 12 bounds the reference at a few thousand hashes
		// per input; maxTries 0 is the unbounded search.
		for _, kernel := range hostLanes() {
			useLane(t, kernel)
			checkAgainstReference(t, prefix, Difficulty(diff%13), uint64(maxTries))
		}
	})
}

// kernelHere is the lane CPUID chose, read before any test switches.
var kernelHere = useKernel

// hostLanes lists the lanes this host runs: the kernel where CPUID
// chose it, and the portable lane always.
func hostLanes() []bool {
	if kernelHere {
		return []bool{true, false}
	}
	return []bool{false}
}

// useLane makes SearchPrefix grind on the kernel lane or the portable
// one until the test ends.
func useLane(t testing.TB, kernel bool) {
	useKernel = kernel
	t.Cleanup(func() { useKernel = kernelHere })
}

// forEachLane runs f as one subtest per lane of hostLanes.
func forEachLane(t *testing.T, f func(t *testing.T)) {
	for _, kernel := range hostLanes() {
		name := "lane=portable"
		if kernel {
			name = "lane=kernel"
		}
		t.Run(name, func(t *testing.T) {
			useLane(t, kernel)
			f(t)
		})
	}
}
