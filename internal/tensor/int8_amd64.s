//go:build amd64

#include "textflag.h"

// int32 clamp bounds for the symmetric int8 range [-127, 127].
DATA int8Hi<>+0(SB)/4, $127
DATA int8Hi<>+4(SB)/4, $127
DATA int8Hi<>+8(SB)/4, $127
DATA int8Hi<>+12(SB)/4, $127
GLOBL int8Hi<>(SB), RODATA, $16

DATA int8Lo<>+0(SB)/4, $-127
DATA int8Lo<>+4(SB)/4, $-127
DATA int8Lo<>+8(SB)/4, $-127
DATA int8Lo<>+12(SB)/4, $-127
GLOBL int8Lo<>(SB), RODATA, $16

// sign mask clear for |x| on float64 lanes.
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA, $8

// func gemmInt8NTAVX2(c []int32, a, b []int8, m, n, k int)
//
// C += A·Bᵀ, row-major int8 A (m x k) and B (n x k) into int32 C (m x n).
// k must be a positive multiple of 16: each step sign-extends 16 codes of
// the A row and of four B rows (VPMOVSXBW), multiplies pairwise into
// int32 partials (VPMADDWD; max per lane 2·127·127 = 32258, no overflow),
// and accumulates (VPADDD). Every product lands in an int32 lane exactly,
// so the horizontal reduction order is irrelevant and the result matches
// gemmInt8NTGeneric bit for bit.
TEXT ·gemmInt8NTAVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ m+72(FP), R9
	MOVQ n+80(FP), R10
	MOVQ k+88(FP), R11

	XORQ R12, R12 // i

iloop:
	CMPQ R12, R9
	JGE  gdone

	// AX = &a[i*k], persists across the j loop (CX/DX are scratch).
	MOVQ  R12, AX
	IMULQ R11, AX
	ADDQ  SI, AX

	XORQ R14, R14 // j

jloop:
	LEAQ 3(R14), CX
	CMPQ CX, R10
	JGE  jtail // fewer than 4 columns left

	// Four B row pointers for j .. j+3.
	MOVQ  R14, R13
	IMULQ R11, R13
	ADDQ  BX, R13
	LEAQ  (R13)(R11*1), R15
	LEAQ  (R15)(R11*1), R8
	LEAQ  (R8)(R11*1), DX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

	XORQ CX, CX // k offset (bytes == codes)

kloop4:
	VPMOVSXBW (AX)(CX*1), Y4 // 16 codes of the A row

	VPMOVSXBW (R13)(CX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0

	VPMOVSXBW (R15)(CX*1), Y6
	VPMADDWD  Y6, Y4, Y6
	VPADDD    Y6, Y1, Y1

	VPMOVSXBW (R8)(CX*1), Y7
	VPMADDWD  Y7, Y4, Y7
	VPADDD    Y7, Y2, Y2

	VPMOVSXBW (DX)(CX*1), Y8
	VPMADDWD  Y8, Y4, Y8
	VPADDD    Y8, Y3, Y3

	ADDQ $16, CX
	CMPQ CX, R11
	JL   kloop4

	// CX = byte offset of c[i*n + j]; DX becomes hsum scratch.
	MOVQ  R12, CX
	IMULQ R10, CX
	ADDQ  R14, CX
	SHLQ  $2, CX

	// Horizontal int32 sum of Y0..Y3 into c[i*n+j .. +3].
	VEXTRACTI128 $1, Y0, X5
	VPADDD       X5, X0, X0
	VPSHUFD      $0x4E, X0, X5
	VPADDD       X5, X0, X0
	VPSHUFD      $0xB1, X0, X5
	VPADDD       X5, X0, X0
	MOVQ         X0, DX
	ADDL         DX, (DI)(CX*1)

	VEXTRACTI128 $1, Y1, X5
	VPADDD       X5, X1, X1
	VPSHUFD      $0x4E, X1, X5
	VPADDD       X5, X1, X1
	VPSHUFD      $0xB1, X1, X5
	VPADDD       X5, X1, X1
	MOVQ         X1, DX
	ADDL         DX, 4(DI)(CX*1)

	VEXTRACTI128 $1, Y2, X5
	VPADDD       X5, X2, X2
	VPSHUFD      $0x4E, X2, X5
	VPADDD       X5, X2, X2
	VPSHUFD      $0xB1, X2, X5
	VPADDD       X5, X2, X2
	MOVQ         X2, DX
	ADDL         DX, 8(DI)(CX*1)

	VEXTRACTI128 $1, Y3, X5
	VPADDD       X5, X3, X3
	VPSHUFD      $0x4E, X3, X5
	VPADDD       X5, X3, X3
	VPSHUFD      $0xB1, X3, X5
	VPADDD       X5, X3, X3
	MOVQ         X3, DX
	ADDL         DX, 12(DI)(CX*1)

	ADDQ $4, R14
	JMP  jloop

jtail:
	CMPQ R14, R10
	JGE  inext

	// Single B row.
	MOVQ  R14, R13
	IMULQ R11, R13
	ADDQ  BX, R13

	VPXOR Y0, Y0, Y0
	XORQ  CX, CX

kloop1:
	VPMOVSXBW (AX)(CX*1), Y4
	VPMOVSXBW (R13)(CX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	ADDQ      $16, CX
	CMPQ      CX, R11
	JL        kloop1

	MOVQ  R12, CX
	IMULQ R10, CX
	ADDQ  R14, CX
	SHLQ  $2, CX

	VEXTRACTI128 $1, Y0, X5
	VPADDD       X5, X0, X0
	VPSHUFD      $0x4E, X0, X5
	VPADDD       X5, X0, X0
	VPSHUFD      $0xB1, X0, X5
	VPADDD       X5, X0, X0
	MOVQ         X0, DX
	ADDL         DX, (DI)(CX*1)

	INCQ R14
	JMP  jtail

inext:
	INCQ R12
	JMP  iloop

gdone:
	VZEROUPPER
	RET

// func quantizeInt8AVX2(dst []int8, src []float64, inv float64)
//
// dst[i] = clamp(rne(src[i]*inv), -127, 127), four elements per
// iteration. VCVTPD2DQ rounds to nearest-even under the default MXCSR
// (matching math.RoundToEven); out-of-int32-range and NaN products
// convert to the 0x80000000 indefinite, which the min-then-max clamp maps
// to -127 exactly like the scalar kernel's NaN branch. len(dst) ==
// len(src) must be a multiple of 4.
TEXT ·quantizeInt8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD inv+48(FP), Y1
	VMOVDQU int8Hi<>(SB), X2
	VMOVDQU int8Lo<>(SB), X3

qloop:
	TESTQ CX, CX
	JLE   qdone
	VMOVUPD    (SI), Y4
	VMULPD     Y1, Y4, Y4
	VCVTPD2DQY Y4, X4      // 4 x float64 -> 4 x int32, round-to-nearest-even
	VPMINSD    X2, X4, X4  // min(v, 127); indefinite stays INT_MIN
	VPMAXSD    X3, X4, X4  // max(v, -127)
	VPACKSSDW  X4, X4, X4  // 4 x int32 -> 4 x int16 (low 64 bits)
	VPACKSSWB  X4, X4, X4  // -> 4 x int8 (low 32 bits)
	MOVQ       X4, AX
	MOVL       AX, (DI)
	ADDQ $32, SI
	ADDQ $4, DI
	SUBQ $4, CX
	JMP  qloop

qdone:
	VZEROUPPER
	RET

// func maxAbsAVX2(x []float64) float64
//
// max(|x[i]|) over finite inputs, four lanes per iteration (NaN handling
// is unspecified: VMAXPD propagates the second operand on NaN, so callers
// must pre-screen). len(x) must be a positive multiple of 4.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VBROADCASTSD absMask<>(SB), Y1

mloop:
	TESTQ CX, CX
	JLE   mdone
	VANDPD (SI), Y1, Y2
	VMAXPD Y2, Y0, Y0
	ADDQ   $32, SI
	SUBQ   $4, CX
	JMP    mloop

mdone:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VMAXSD       X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET
