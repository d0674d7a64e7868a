package block

// SizeModel is the paper's analytic cost model (Sec. III-B, Eq. 2–3 and
// the Sec. VI settings). All fields are in bits. The simulator accounts
// storage and communication with this model so reproduced curves follow
// the paper's arithmetic; the live runtime's real wire sizes are close
// but carry Ed25519's 512-bit signatures and bookkeeping fields.
type SizeModel struct {
	FV int // Version field (f_v)
	FT int // Time field (f_t)
	FH int // hash/digest size (f_H), also Root and each Δ entry
	FN int // Nonce field (f_n)
	FS int // Signature field (f_s)
	C  int // body payload size (C), bits
}

// DefaultSizeModel returns the Sec. VI settings: f_v=f_t=f_n=32,
// f_H=f_s=256 bits, with the given body size in bytes.
func DefaultSizeModel(bodyBytes int) SizeModel {
	return SizeModel{FV: 32, FT: 32, FH: 256, FN: 32, FS: 256, C: bodyBytes * 8}
}

// ConstantBits is f_c = f_v + f_t + f_H + f_n + f_s (Eq. 3).
func (m SizeModel) ConstantBits() int {
	return m.FV + m.FT + m.FH + m.FN + m.FS
}

// DigestBits is the size of one transmitted digest (f_H).
func (m SizeModel) DigestBits() int {
	return m.FH
}
