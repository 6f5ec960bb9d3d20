//go:build amd64

#include "textflag.h"

// AVX2 float64 kernels of the batched nn path. Every kernel vectorizes
// across output elements: each lane holds one C (or y) element and adds
// its products one VMULPD + VADDPD pair at a time, in the order of the
// scalar loop it replaces, so every lane rounds exactly like the scalar
// statement. None of them uses FMA: a fused multiply-add rounds once and
// would break the bit-identity with the Go kernels.

// func gemmNT8AVX2(c, a []float64, panel *[2048]float64, m, kc, ldc, lda int)
//
// C[i][0:8] += Σ_p A[i][p]·P[p][0:8] for i < m, p < kc, ascending p. C
// rows are ldc elements apart and A rows lda; P is a packed panel of
// eight B columns, eight consecutive float64 per p. Four A rows at a time
// keep eight accumulators (Y0..Y7) in flight; the row tail runs one row.
TEXT ·gemmNT8AVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ panel+48(FP), DX
	MOVQ m+56(FP), R8
	MOVQ kc+64(FP), R9
	MOVQ ldc+72(FP), R10
	MOVQ lda+80(FP), R11
	SHLQ $3, R10                 // C row stride in bytes
	SHLQ $3, R11                 // A row stride in bytes
	LEAQ (R10)(R10*2), R13       // 3 C rows
	LEAQ (R11)(R11*2), R14       // 3 A rows

g8rows4:
	CMPQ R8, $4
	JLT  g8rows1

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R10*1), Y2
	VMOVUPD 32(DI)(R10*1), Y3
	VMOVUPD (DI)(R10*2), Y4
	VMOVUPD 32(DI)(R10*2), Y5
	VMOVUPD (DI)(R13*1), Y6
	VMOVUPD 32(DI)(R13*1), Y7

	MOVQ SI, AX // A row 0 at p
	MOVQ DX, BX // panel at p
	MOVQ R9, CX

g8k4:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (AX)(R11*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (AX)(R14*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $64, BX
	ADDQ         $8, AX
	DECQ         CX
	JNZ          g8k4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y5, 32(DI)(R10*2)
	VMOVUPD Y6, (DI)(R13*1)
	VMOVUPD Y7, 32(DI)(R13*1)

	LEAQ (DI)(R10*4), DI
	LEAQ (SI)(R11*4), SI
	SUBQ $4, R8
	JMP  g8rows4

g8rows1:
	TESTQ R8, R8
	JZ    g8done

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R9, CX

g8k1:
	VBROADCASTSD (AX), Y10
	VMULPD       (BX), Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       32(BX), Y10, Y12
	VADDPD       Y12, Y1, Y1
	ADDQ         $64, BX
	ADDQ         $8, AX
	DECQ         CX
	JNZ          g8k1

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R10, DI
	ADDQ    R11, SI
	DECQ    R8
	JMP     g8rows1

g8done:
	VZEROUPPER
	RET

// func gemmNT4AVX2(c, a []float64, panel *[2048]float64, m, kc, ldc, lda int)
//
// gemmNT8AVX2 for a four-column panel (four consecutive float64 per p):
// four A rows at a time in Y0..Y3, then the row tail one row at a time.
TEXT ·gemmNT4AVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ panel+48(FP), DX
	MOVQ m+56(FP), R8
	MOVQ kc+64(FP), R9
	MOVQ ldc+72(FP), R10
	MOVQ lda+80(FP), R11
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R10)(R10*2), R13
	LEAQ (R11)(R11*2), R14

g4rows4:
	CMPQ R8, $4
	JLT  g4rows1

	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R10*1), Y1
	VMOVUPD (DI)(R10*2), Y2
	VMOVUPD (DI)(R13*1), Y3

	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R9, CX

g4k4:
	VMOVUPD      (BX), Y8
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (AX)(R11*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (AX)(R14*1), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $32, BX
	ADDQ         $8, AX
	DECQ         CX
	JNZ          g4k4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R10*1)
	VMOVUPD Y2, (DI)(R10*2)
	VMOVUPD Y3, (DI)(R13*1)

	LEAQ (DI)(R10*4), DI
	LEAQ (SI)(R11*4), SI
	SUBQ $4, R8
	JMP  g4rows4

g4rows1:
	TESTQ R8, R8
	JZ    g4done

	VMOVUPD (DI), Y0
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R9, CX

g4k1:
	VBROADCASTSD (AX), Y10
	VMULPD       (BX), Y10, Y11
	VADDPD       Y11, Y0, Y0
	ADDQ         $32, BX
	ADDQ         $8, AX
	DECQ         CX
	JNZ          g4k1

	VMOVUPD Y0, (DI)
	ADDQ    R10, DI
	ADDQ    R11, SI
	DECQ    R8
	JMP     g4rows1

g4done:
	VZEROUPPER
	RET

// func axpy4AVX2(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)
//
// y[i] = y[i] + a0·x0[i] + a1·x1[i] + a2·x2[i] + a3·x3[i], added left to
// right, for i < len(y); every x must hold at least len(y) elements. Four
// elements per vector step, the last len(y) % 4 with scalar VMULSD/VADDSD.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x0_base+24(FP), R8
	MOVQ         x1_base+48(FP), R9
	MOVQ         x2_base+72(FP), R10
	MOVQ         x3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y12
	VBROADCASTSD a1+128(FP), Y13
	VBROADCASTSD a2+136(FP), Y14
	VBROADCASTSD a3+144(FP), Y15
	XORQ         AX, AX // byte offset

	// Eight elements per iteration: two independent lane groups.
	MOVQ CX, DX
	ANDQ $-8, DX
	SHLQ $3, DX
	TESTQ DX, DX
	JZ   a4quad

a4oct:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMULPD  (R8)(AX*1), Y12, Y2
	VMULPD  32(R8)(AX*1), Y12, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R9)(AX*1), Y13, Y2
	VMULPD  32(R9)(AX*1), Y13, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R10)(AX*1), Y14, Y2
	VMULPD  32(R10)(AX*1), Y14, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R11)(AX*1), Y15, Y2
	VMULPD  32(R11)(AX*1), Y15, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, DX
	JLT     a4oct

a4quad:
	MOVQ CX, DX
	ANDQ $-4, DX
	SHLQ $3, DX
	CMPQ AX, DX
	JGE  a4tail
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  (R8)(AX*1), Y12, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R9)(AX*1), Y13, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10)(AX*1), Y14, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R11)(AX*1), Y15, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX

a4tail:
	SHLQ $3, CX

a4tailloop:
	CMPQ AX, CX
	JGE  a4done
	VMOVSD (DI)(AX*1), X0
	VMOVSD (R8)(AX*1), X2
	VMULSD X2, X12, X2
	VADDSD X2, X0, X0
	VMOVSD (R9)(AX*1), X2
	VMULSD X2, X13, X2
	VADDSD X2, X0, X0
	VMOVSD (R10)(AX*1), X2
	VMULSD X2, X14, X2
	VADDSD X2, X0, X0
	VMOVSD (R11)(AX*1), X2
	VMULSD X2, X15, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    a4tailloop

a4done:
	VZEROUPPER
	RET

// func axpyAVX2(y, x []float64, a float64)
//
// y[i] += a·x[i] for i < len(y); x must hold at least len(y) elements.
// Sixteen elements per iteration, then groups of four, then scalar.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y12
	XORQ         AX, AX

	MOVQ CX, DX
	ANDQ $-16, DX
	SHLQ $3, DX
	TESTQ DX, DX
	JZ   a1quad

a1hex:
	VMULPD  (SI)(AX*1), Y12, Y4
	VMULPD  32(SI)(AX*1), Y12, Y5
	VMULPD  64(SI)(AX*1), Y12, Y6
	VMULPD  96(SI)(AX*1), Y12, Y7
	VADDPD  (DI)(AX*1), Y4, Y4
	VADDPD  32(DI)(AX*1), Y5, Y5
	VADDPD  64(DI)(AX*1), Y6, Y6
	VADDPD  96(DI)(AX*1), Y7, Y7
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ    $128, AX
	CMPQ    AX, DX
	JLT     a1hex

a1quad:
	MOVQ CX, DX
	ANDQ $-4, DX
	SHLQ $3, DX

a1quadloop:
	CMPQ    AX, DX
	JGE     a1tail
	VMULPD  (SI)(AX*1), Y12, Y4
	VADDPD  (DI)(AX*1), Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     a1quadloop

a1tail:
	SHLQ $3, CX

a1tailloop:
	CMPQ   AX, CX
	JGE    a1done
	VMOVSD (SI)(AX*1), X4
	VMULSD X4, X12, X4
	VADDSD (DI)(AX*1), X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    a1tailloop

a1done:
	VZEROUPPER
	RET
