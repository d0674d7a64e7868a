package pow

import (
	"encoding/binary"
	"errors"
	"fmt"
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

func TestExpectedTries(t *testing.T) {
	if ExpectedTries(0) != 1 {
		t.Fatal("difficulty 0 should need one expected try")
	}
	if ExpectedTries(8) != 256 {
		t.Fatal("difficulty 8 should need 256 expected tries")
	}
	if ExpectedTries(100) != 1<<63 {
		t.Fatal("expected tries should saturate")
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
// with 8 neighbors (Δ of 9), 392 B ends 8 bytes into a SHA-256 block.
// The prefix changes every iteration so ns/op averages over the ~256
// expected tries instead of timing one lucky or unlucky nonce.
func BenchmarkHotpathSearchPrefix(b *testing.B) {
	for _, size := range []int{356, 392} {
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
// with an unbounded search and one that exhausts after two tries.
func TestSearchPrefixMatchesReference(t *testing.T) {
	buf := make([]byte, 200)
	for i := range buf {
		buf[i] = byte(i*31 + 7)
	}
	for n := 0; n <= len(buf); n++ {
		for _, diff := range []Difficulty{0, 1, 8, 12} {
			if diff == 12 && n%64 != 0 && n%64 < 51 {
				continue // ~4096 tries each: keep the boundary lengths only
			}
			checkAgainstReference(t, buf[:n], diff, 0)
			checkAgainstReference(t, buf[:n], diff, 2)
		}
	}
}

func FuzzSearchPrefixMatchesReference(f *testing.F) {
	for _, n := range []int{0, 51, 52, 55, 56, 59, 60, 63, 64, 128, 200} {
		f.Add(make([]byte, n), uint8(8), uint16(0))
	}
	f.Add([]byte("block header fields"), uint8(12), uint16(3))
	f.Fuzz(func(t *testing.T, prefix []byte, diff uint8, maxTries uint16) {
		// Difficulty ≤ 12 bounds the reference at a few thousand hashes
		// per input; maxTries 0 is the unbounded search.
		checkAgainstReference(t, prefix, Difficulty(diff%13), uint64(maxTries))
	})
}
