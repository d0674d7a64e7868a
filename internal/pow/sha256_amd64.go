package pow

// useKernel selects the SHA-NI lanes of sha256_amd64.s: they need the
// SHA extensions, SSSE3 (PSHUFB, PALIGNR) and SSE4.1 (PBLENDW).
var useKernel = kernelSupported()

// kernelSupported reads the three feature bits off CPUID: leaf 1 ECX
// bit 9 (SSSE3) and bit 19 (SSE4.1), leaf 7 EBX bit 29 (SHA).
func kernelSupported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}

// blockSHANI runs SHA-256's compression over the whole 64-byte blocks
// of p, updating the chaining value h (h0..h7).
//
//go:noescape
func blockSHANI(h *[8]uint32, p []byte)

// block2SHANI compresses two lanes from the chaining value h: a's
// whole blocks into da and as many of b's into db. a and b have the
// same length.
//
//go:noescape
func block2SHANI(h *[8]uint32, a, b []byte, da, db *[8]uint32)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
