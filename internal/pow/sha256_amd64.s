// Copyright 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The SHA-NI kernel of the nonce search. blockSHANI is Go's
// crypto/internal/fips140/sha256 blockSHANI with SSE moves
// (MOVOU/MOVO) in place of its VEX ones, so it needs SHA, SSSE3 and
// SSE4.1 but not AVX, and with a round-constant table that holds each
// constant once. block2SHANI runs the same rounds for two lanes from
// one chaining value: lane A in X1-X7, lane B in X9-X15, the two
// sharing X0 (the implicit operand of SHA256RNDS2) and the byte-swap
// mask in X8. The lanes alternate one 4-round segment at a time, so
// each lane's SHA256RNDS2 chain runs while the other's waits on its
// latency.

#include "textflag.h"

// LOADSTATE reads h0..h7 at p into the order SHA256RNDS2 keeps them in:
// s0 = ABEF, s1 = CDGH. t is scratch.
#define LOADSTATE(p, s0, s1, t) \
	MOVOU   (p), s0; \
	MOVOU   16(p), s1; \
	PSHUFD  $0xb1, s0, s0; \
	PSHUFD  $0x1b, s1, s1; \
	MOVO    s0, t; \
	PALIGNR $0x08, s1, s0; \
	PBLENDW $0xf0, t, s1

// STORESTATE writes ABEF (s0) and CDGH (s1) back to p as h0..h7.
#define STORESTATE(s0, s1, t, p) \
	PSHUFD  $0x1b, s0, s0; \
	PSHUFD  $0xb1, s1, s1; \
	MOVO    s0, t; \
	PBLENDW $0xf0, s1, s0; \
	PALIGNR $0x08, t, s1; \
	MOVOU   s0, (p); \
	MOVOU   s1, 16(p)

// LOAD reads message bytes off..off+15 at p into m as big-endian words.
#define LOAD(off, p, m) \
	MOVOU  off(p), m; \
	PSHUFB X8, m

// ROUNDS4 runs four rounds on message words m and the constants at
// k(AX) over the state s0 (ABEF), s1 (CDGH).
#define ROUNDS4(k, m, s0, s1) \
	MOVO        m, X0; \
	PADDD       k(AX), X0; \
	SHA256RNDS2 X0, s0, s1; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, s1, s0

// SCHED finishes the next-but-three message words mn from the current
// words mc and the previous ones mp. t is scratch.
#define SCHED(mc, mp, mn, t) \
	MOVO       mc, t; \
	PALIGNR    $0x04, mp, t; \
	PADDD      t, mn; \
	SHA256MSG2 mc, mn

// func blockSHANI(h *[8]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $0x06, DX
	SHLQ $0x06, DX
	CMPQ DX, $0x00
	JEQ  done
	ADDQ SI, DX
	LOADSTATE(DI, X1, X2, X7)
	MOVOU flip_mask<>+0(SB), X8
	LEAQ  k256<>+0(SB), AX

loop:
	// save the chaining value for the feed-forward
	MOVO X1, X9
	MOVO X2, X10

	LOAD(0, SI, X3)
	ROUNDS4(0, X3, X1, X2)
	LOAD(16, SI, X4)
	ROUNDS4(16, X4, X1, X2)
	SHA256MSG1 X4, X3
	LOAD(32, SI, X5)
	ROUNDS4(32, X5, X1, X2)
	SHA256MSG1 X5, X4
	LOAD(48, SI, X6)
	ROUNDS4(48, X6, X1, X2)
	SCHED(X6, X5, X3, X7)
	SHA256MSG1 X6, X5
	ROUNDS4(64, X3, X1, X2)
	SCHED(X3, X6, X4, X7)
	SHA256MSG1 X3, X6
	ROUNDS4(80, X4, X1, X2)
	SCHED(X4, X3, X5, X7)
	SHA256MSG1 X4, X3
	ROUNDS4(96, X5, X1, X2)
	SCHED(X5, X4, X6, X7)
	SHA256MSG1 X5, X4
	ROUNDS4(112, X6, X1, X2)
	SCHED(X6, X5, X3, X7)
	SHA256MSG1 X6, X5
	ROUNDS4(128, X3, X1, X2)
	SCHED(X3, X6, X4, X7)
	SHA256MSG1 X3, X6
	ROUNDS4(144, X4, X1, X2)
	SCHED(X4, X3, X5, X7)
	SHA256MSG1 X4, X3
	ROUNDS4(160, X5, X1, X2)
	SCHED(X5, X4, X6, X7)
	SHA256MSG1 X5, X4
	ROUNDS4(176, X6, X1, X2)
	SCHED(X6, X5, X3, X7)
	SHA256MSG1 X6, X5
	ROUNDS4(192, X3, X1, X2)
	SCHED(X3, X6, X4, X7)
	SHA256MSG1 X3, X6
	ROUNDS4(208, X4, X1, X2)
	SCHED(X4, X3, X5, X7)
	ROUNDS4(224, X5, X1, X2)
	SCHED(X5, X4, X6, X7)
	ROUNDS4(240, X6, X1, X2)

	PADDD X9, X1
	PADDD X10, X2
	ADDQ  $0x40, SI
	CMPQ  DX, SI
	JNE   loop

	STORESTATE(X1, X2, X7, DI)

done:
	RET

// func block2SHANI(h *[8]uint32, a []byte, b []byte, da *[8]uint32, db *[8]uint32)
// The chaining values to feed forward sit in the frame: lane A's at
// 0(SP), lane B's at 32(SP).
TEXT ·block2SHANI(SB), NOSPLIT, $64-72
	MOVQ h+0(FP), R8
	MOVQ a_base+8(FP), SI
	MOVQ a_len+16(FP), DX
	MOVQ b_base+32(FP), DI
	SHRQ $0x06, DX
	SHLQ $0x06, DX
	LOADSTATE(R8, X1, X2, X7)
	MOVO X1, X9
	MOVO X2, X10
	CMPQ DX, $0x00
	JEQ  store
	ADDQ SI, DX
	MOVOU flip_mask<>+0(SB), X8
	LEAQ  k256<>+0(SB), AX

loop:
	MOVOU X1, 0(SP)
	MOVOU X2, 16(SP)
	MOVOU X9, 32(SP)
	MOVOU X10, 48(SP)

	LOAD(0, SI, X3)
	ROUNDS4(0, X3, X1, X2)
	LOAD(0, DI, X11)
	ROUNDS4(0, X11, X9, X10)

	LOAD(16, SI, X4)
	ROUNDS4(16, X4, X1, X2)
	SHA256MSG1 X4, X3
	LOAD(16, DI, X12)
	ROUNDS4(16, X12, X9, X10)
	SHA256MSG1 X12, X11

	LOAD(32, SI, X5)
	ROUNDS4(32, X5, X1, X2)
	SHA256MSG1 X5, X4
	LOAD(32, DI, X13)
	ROUNDS4(32, X13, X9, X10)
	SHA256MSG1 X13, X12

	LOAD(48, SI, X6)
	ROUNDS4(48, X6, X1, X2)
	SCHED(X6, X5, X3, X7)
	SHA256MSG1 X6, X5
	LOAD(48, DI, X14)
	ROUNDS4(48, X14, X9, X10)
	SCHED(X14, X13, X11, X15)
	SHA256MSG1 X14, X13

	ROUNDS4(64, X3, X1, X2)
	SCHED(X3, X6, X4, X7)
	SHA256MSG1 X3, X6
	ROUNDS4(64, X11, X9, X10)
	SCHED(X11, X14, X12, X15)
	SHA256MSG1 X11, X14

	ROUNDS4(80, X4, X1, X2)
	SCHED(X4, X3, X5, X7)
	SHA256MSG1 X4, X3
	ROUNDS4(80, X12, X9, X10)
	SCHED(X12, X11, X13, X15)
	SHA256MSG1 X12, X11

	ROUNDS4(96, X5, X1, X2)
	SCHED(X5, X4, X6, X7)
	SHA256MSG1 X5, X4
	ROUNDS4(96, X13, X9, X10)
	SCHED(X13, X12, X14, X15)
	SHA256MSG1 X13, X12

	ROUNDS4(112, X6, X1, X2)
	SCHED(X6, X5, X3, X7)
	SHA256MSG1 X6, X5
	ROUNDS4(112, X14, X9, X10)
	SCHED(X14, X13, X11, X15)
	SHA256MSG1 X14, X13

	ROUNDS4(128, X3, X1, X2)
	SCHED(X3, X6, X4, X7)
	SHA256MSG1 X3, X6
	ROUNDS4(128, X11, X9, X10)
	SCHED(X11, X14, X12, X15)
	SHA256MSG1 X11, X14

	ROUNDS4(144, X4, X1, X2)
	SCHED(X4, X3, X5, X7)
	SHA256MSG1 X4, X3
	ROUNDS4(144, X12, X9, X10)
	SCHED(X12, X11, X13, X15)
	SHA256MSG1 X12, X11

	ROUNDS4(160, X5, X1, X2)
	SCHED(X5, X4, X6, X7)
	SHA256MSG1 X5, X4
	ROUNDS4(160, X13, X9, X10)
	SCHED(X13, X12, X14, X15)
	SHA256MSG1 X13, X12

	ROUNDS4(176, X6, X1, X2)
	SCHED(X6, X5, X3, X7)
	SHA256MSG1 X6, X5
	ROUNDS4(176, X14, X9, X10)
	SCHED(X14, X13, X11, X15)
	SHA256MSG1 X14, X13

	ROUNDS4(192, X3, X1, X2)
	SCHED(X3, X6, X4, X7)
	SHA256MSG1 X3, X6
	ROUNDS4(192, X11, X9, X10)
	SCHED(X11, X14, X12, X15)
	SHA256MSG1 X11, X14

	ROUNDS4(208, X4, X1, X2)
	SCHED(X4, X3, X5, X7)
	ROUNDS4(208, X12, X9, X10)
	SCHED(X12, X11, X13, X15)

	ROUNDS4(224, X5, X1, X2)
	SCHED(X5, X4, X6, X7)
	ROUNDS4(224, X13, X9, X10)
	SCHED(X13, X12, X14, X15)

	ROUNDS4(240, X6, X1, X2)
	ROUNDS4(240, X14, X9, X10)

	MOVOU 0(SP), X3
	MOVOU 16(SP), X4
	MOVOU 32(SP), X11
	MOVOU 48(SP), X12
	PADDD X3, X1
	PADDD X4, X2
	PADDD X11, X9
	PADDD X12, X10
	ADDQ  $0x40, SI
	ADDQ  $0x40, DI
	CMPQ  DX, SI
	JNE   loop

store:
	MOVQ da+56(FP), R8
	STORESTATE(X1, X2, X7, R8)
	MOVQ db+64(FP), R8
	STORESTATE(X9, X10, X15, R8)
	RET

// func cpuid(leaf uint32, subleaf uint32) (eax uint32, ebx uint32, ecx uint32, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// PSHUFB mask that turns each little-endian load into big-endian words.
DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA|NOPTR, $16

// The 64 round constants K of FIPS 180-4 §4.2.2, four per 16-byte row.
DATA k256<>+0x00(SB)/4, $0x428a2f98
DATA k256<>+0x04(SB)/4, $0x71374491
DATA k256<>+0x08(SB)/4, $0xb5c0fbcf
DATA k256<>+0x0c(SB)/4, $0xe9b5dba5
DATA k256<>+0x10(SB)/4, $0x3956c25b
DATA k256<>+0x14(SB)/4, $0x59f111f1
DATA k256<>+0x18(SB)/4, $0x923f82a4
DATA k256<>+0x1c(SB)/4, $0xab1c5ed5
DATA k256<>+0x20(SB)/4, $0xd807aa98
DATA k256<>+0x24(SB)/4, $0x12835b01
DATA k256<>+0x28(SB)/4, $0x243185be
DATA k256<>+0x2c(SB)/4, $0x550c7dc3
DATA k256<>+0x30(SB)/4, $0x72be5d74
DATA k256<>+0x34(SB)/4, $0x80deb1fe
DATA k256<>+0x38(SB)/4, $0x9bdc06a7
DATA k256<>+0x3c(SB)/4, $0xc19bf174
DATA k256<>+0x40(SB)/4, $0xe49b69c1
DATA k256<>+0x44(SB)/4, $0xefbe4786
DATA k256<>+0x48(SB)/4, $0x0fc19dc6
DATA k256<>+0x4c(SB)/4, $0x240ca1cc
DATA k256<>+0x50(SB)/4, $0x2de92c6f
DATA k256<>+0x54(SB)/4, $0x4a7484aa
DATA k256<>+0x58(SB)/4, $0x5cb0a9dc
DATA k256<>+0x5c(SB)/4, $0x76f988da
DATA k256<>+0x60(SB)/4, $0x983e5152
DATA k256<>+0x64(SB)/4, $0xa831c66d
DATA k256<>+0x68(SB)/4, $0xb00327c8
DATA k256<>+0x6c(SB)/4, $0xbf597fc7
DATA k256<>+0x70(SB)/4, $0xc6e00bf3
DATA k256<>+0x74(SB)/4, $0xd5a79147
DATA k256<>+0x78(SB)/4, $0x06ca6351
DATA k256<>+0x7c(SB)/4, $0x14292967
DATA k256<>+0x80(SB)/4, $0x27b70a85
DATA k256<>+0x84(SB)/4, $0x2e1b2138
DATA k256<>+0x88(SB)/4, $0x4d2c6dfc
DATA k256<>+0x8c(SB)/4, $0x53380d13
DATA k256<>+0x90(SB)/4, $0x650a7354
DATA k256<>+0x94(SB)/4, $0x766a0abb
DATA k256<>+0x98(SB)/4, $0x81c2c92e
DATA k256<>+0x9c(SB)/4, $0x92722c85
DATA k256<>+0xa0(SB)/4, $0xa2bfe8a1
DATA k256<>+0xa4(SB)/4, $0xa81a664b
DATA k256<>+0xa8(SB)/4, $0xc24b8b70
DATA k256<>+0xac(SB)/4, $0xc76c51a3
DATA k256<>+0xb0(SB)/4, $0xd192e819
DATA k256<>+0xb4(SB)/4, $0xd6990624
DATA k256<>+0xb8(SB)/4, $0xf40e3585
DATA k256<>+0xbc(SB)/4, $0x106aa070
DATA k256<>+0xc0(SB)/4, $0x19a4c116
DATA k256<>+0xc4(SB)/4, $0x1e376c08
DATA k256<>+0xc8(SB)/4, $0x2748774c
DATA k256<>+0xcc(SB)/4, $0x34b0bcb5
DATA k256<>+0xd0(SB)/4, $0x391c0cb3
DATA k256<>+0xd4(SB)/4, $0x4ed8aa4a
DATA k256<>+0xd8(SB)/4, $0x5b9cca4f
DATA k256<>+0xdc(SB)/4, $0x682e6ff3
DATA k256<>+0xe0(SB)/4, $0x748f82ee
DATA k256<>+0xe4(SB)/4, $0x78a5636f
DATA k256<>+0xe8(SB)/4, $0x84c87814
DATA k256<>+0xec(SB)/4, $0x8cc70208
DATA k256<>+0xf0(SB)/4, $0x90befffa
DATA k256<>+0xf4(SB)/4, $0xa4506ceb
DATA k256<>+0xf8(SB)/4, $0xbef9a3f7
DATA k256<>+0xfc(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
