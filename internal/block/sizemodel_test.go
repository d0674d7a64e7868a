package block

import (
	"testing"
)

func TestDefaultSizeModelPaperConstants(t *testing.T) {
	m := DefaultSizeModel(500_000) // C = 0.5 MB
	if m.FV != 32 || m.FT != 32 || m.FN != 32 {
		t.Fatal("f_v, f_t, f_n must be 32 bits")
	}
	if m.FH != 256 || m.FS != 256 {
		t.Fatal("f_H and f_s must be 256 bits")
	}
	// f_c = 32+32+256+32+256 = 608 bits (Eq. 3).
	if m.ConstantBits() != 608 {
		t.Fatalf("f_c = %d, want 608", m.ConstantBits())
	}
	if m.C != 4_000_000 {
		t.Fatalf("C = %d bits, want 4e6", m.C)
	}
}

func TestDigestBits(t *testing.T) {
	m := DefaultSizeModel(10)
	if m.DigestBits() != 256 {
		t.Fatal("digest must be 256 bits")
	}
}
