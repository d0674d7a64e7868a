package digest

import (
	"crypto/sha256"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestSumMatchesSHA256(t *testing.T) {
	data := []byte("2ldag proof of path")
	want := sha256.Sum256(data)
	got := Sum(data)
	if got != Digest(want) {
		t.Fatalf("Sum mismatch: got %s want %x", got.Hex(), want)
	}
}

func TestSumConcatenation(t *testing.T) {
	a, b := []byte("hello "), []byte("world")
	joined := Sum(append(append([]byte{}, a...), b...))
	parts := Sum(a, b)
	if joined != parts {
		t.Fatalf("Sum(a||b) != Sum(a, b)")
	}
}

func TestHexRoundTrip(t *testing.T) {
	d := Sum([]byte("round trip"))
	back, err := FromHex(d.Hex())
	if err != nil {
		t.Fatalf("FromHex: %v", err)
	}
	if back != d {
		t.Fatalf("round trip mismatch: %s vs %s", back.Hex(), d.Hex())
	}
}

func TestFromHexErrors(t *testing.T) {
	cases := []string{
		"",
		"abcd",
		strings.Repeat("z", 64),
		strings.Repeat("a", 63),
		strings.Repeat("a", 65),
	}
	for _, c := range cases {
		if _, err := FromHex(c); err == nil {
			t.Errorf("FromHex(%q) succeeded, want error", c)
		}
	}
}

func TestIsZero(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Fatal("zero digest not reported as zero")
	}
	if Sum([]byte("x")).IsZero() {
		t.Fatal("hash of data reported as zero")
	}
}

func TestLeadingZeroBits(t *testing.T) {
	cases := []struct {
		d    Digest
		want int
	}{
		{Digest{0x80}, 0},
		{Digest{0x40}, 1},
		{Digest{0x01}, 7},
		{Digest{0x00, 0x80}, 8},
		{Digest{0x00, 0x00, 0x01}, 23},
		{Digest{}, 256},
	}
	for _, c := range cases {
		if got := c.d.LeadingZeroBits(); got != c.want {
			t.Errorf("LeadingZeroBits(%s) = %d, want %d", c.d.Hex(), got, c.want)
		}
	}
}

func TestShortAndString(t *testing.T) {
	d := Sum([]byte("short"))
	if len(d.Short()) != 8 {
		t.Fatalf("Short length %d, want 8", len(d.Short()))
	}
	if d.String() != d.Short() {
		t.Fatal("String should equal Short")
	}
}

func TestQuickHexRoundTrip(t *testing.T) {
	f := func(raw [Size]byte) bool {
		d := Digest(raw)
		back, err := FromHex(d.Hex())
		return err == nil && back == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSumSplitAnywhere(t *testing.T) {
	f := func(data []byte, cut uint16) bool {
		i := 0
		if len(data) > 0 {
			i = int(cut) % (len(data) + 1)
		}
		want := Digest(sha256.Sum256(data))
		return Sum(data[:i], data[i:]) == want && Sum(data) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLeadingZeroBitsMatchesBitLen(t *testing.T) {
	f := func(raw [Size]byte, shift uint8) bool {
		// Zero a prefix of random length so high counts are reached too.
		d := Digest(raw)
		for k := 0; k < int(shift)%(Size+1); k++ {
			d[k] = 0
		}
		return d.LeadingZeroBits() == 8*Size-new(big.Int).SetBytes(d[:]).BitLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
