//go:build amd64

#include "textflag.h"

// AVX2 and AVX-512 float64 kernels of the batched nn path. Every kernel
// vectorizes across output elements: each lane holds one C (or y) element
// and adds its products one VMULPD + VADDPD pair at a time, in the order
// of the scalar loop it replaces, so every lane rounds exactly like the
// scalar statement. None of them uses FMA: a fused multiply-add rounds once and
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

// func gemmTileAVX512(c, a, b *float64, order *int, rows, q0, kc, lda, ldak, ldb, ldc int, cols uint64)
//
// C[i·ldc + j] += A[i·lda + idx·ldak]·B[idx·ldb + j] for i < rows, the
// strip's columns j < 32 and idx = order[q] (or q when order is nil), q
// ascending over [q0, q0+kc), every product added, a zero scale included.
// The strides count float64 elements. A C row's strip sits in up to four
// ZMM registers for the whole q loop; four C rows at a time (Z0-Z15),
// then the row tail one row at a time. Bit j of cols enables column j:
// K1-K4 cover columns 0-7, 8-15, 16-23 and 24-31, masked loads read
// nothing and masked stores write nothing past the strip, and a ZMM
// group whose mask is empty is skipped, so a strip of w columns costs
// ceil(w/8) multiplies and adds per row and k step. Each k step of a row
// group prefetches the next group's A elements: GemmNT reads its A rows
// (im2col windows) thousands of bytes apart.
TEXT ·gemmTileAVX512(SB), NOSPLIT, $0-96
	MOVQ  c+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  order+24(FP), R8
	MOVQ  rows+32(FP), R9
	MOVQ  q0+40(FP), R14
	ADDQ  kc+48(FP), R14       // q end
	MOVQ  lda+56(FP), R13
	MOVQ  ldak+64(FP), R11
	MOVQ  ldb+72(FP), R10
	MOVQ  ldc+80(FP), R12
	MOVQ  cols+88(FP), AX
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K2
	SHRQ  $8, AX
	KMOVW AX, K3
	SHRQ  $8, AX
	KMOVW AX, K4
	SHLQ  $3, R13              // A row stride in bytes
	SHLQ  $3, R11              // A k stride in bytes
	SHLQ  $3, R10              // B row stride in bytes
	SHLQ  $3, R12              // C row stride in bytes

tile4rows:
	CMPQ R9, $4
	JLT  tile1rows

	LEAQ      (DI)(R12*2), AX
	ADDQ      R12, AX          // C row 3
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	VMOVUPD.Z 128(DI), K3, Z2
	VMOVUPD.Z 192(DI), K4, Z3
	VMOVUPD.Z (DI)(R12*1), K1, Z4
	VMOVUPD.Z 64(DI)(R12*1), K2, Z5
	VMOVUPD.Z 128(DI)(R12*1), K3, Z6
	VMOVUPD.Z 192(DI)(R12*1), K4, Z7
	VMOVUPD.Z (DI)(R12*2), K1, Z8
	VMOVUPD.Z 64(DI)(R12*2), K2, Z9
	VMOVUPD.Z 128(DI)(R12*2), K3, Z10
	VMOVUPD.Z 192(DI)(R12*2), K4, Z11
	VMOVUPD.Z (AX), K1, Z12
	VMOVUPD.Z 64(AX), K2, Z13
	VMOVUPD.Z 128(AX), K3, Z14
	VMOVUPD.Z 192(AX), K4, Z15
	MOVQ      q0+40(FP), CX

tile4k:
	MOVQ  CX, AX
	TESTQ R8, R8
	JZ    tile4idx
	MOVQ  (R8)(CX*8), AX

tile4idx:
	MOVQ         AX, BX
	IMULQ        R11, AX
	IMULQ        R10, BX
	ADDQ         SI, AX
	ADDQ         DX, BX
	VBROADCASTSD (AX), Z20
	VBROADCASTSD (AX)(R13*1), Z21
	VBROADCASTSD (AX)(R13*2), Z22
	PREFETCHT0   (AX)(R13*4)
	LEAQ         (AX)(R13*2), AX
	VBROADCASTSD (AX)(R13*1), Z23
	PREFETCHT0   (AX)(R13*4)
	ADDQ         R13, AX
	PREFETCHT0   (AX)(R13*2)
	PREFETCHT0   (AX)(R13*4)
	VMOVUPD.Z    (BX), K1, Z16
	VMULPD       Z16, Z20, Z24
	VMULPD       Z16, Z21, Z25
	VMULPD       Z16, Z22, Z26
	VMULPD       Z16, Z23, Z27
	VADDPD       Z24, Z0, Z0
	VADDPD       Z25, Z4, Z4
	VADDPD       Z26, Z8, Z8
	VADDPD       Z27, Z12, Z12
	KORTESTW     K2, K2
	JZ           tile4next
	VMOVUPD.Z    64(BX), K2, Z17
	VMULPD       Z17, Z20, Z28
	VMULPD       Z17, Z21, Z29
	VMULPD       Z17, Z22, Z30
	VMULPD       Z17, Z23, Z31
	VADDPD       Z28, Z1, Z1
	VADDPD       Z29, Z5, Z5
	VADDPD       Z30, Z9, Z9
	VADDPD       Z31, Z13, Z13
	KORTESTW     K3, K3
	JZ           tile4next
	VMOVUPD.Z    128(BX), K3, Z18
	VMULPD       Z18, Z20, Z24
	VMULPD       Z18, Z21, Z25
	VMULPD       Z18, Z22, Z26
	VMULPD       Z18, Z23, Z27
	VADDPD       Z24, Z2, Z2
	VADDPD       Z25, Z6, Z6
	VADDPD       Z26, Z10, Z10
	VADDPD       Z27, Z14, Z14
	KORTESTW     K4, K4
	JZ           tile4next
	VMOVUPD.Z    192(BX), K4, Z19
	VMULPD       Z19, Z20, Z28
	VMULPD       Z19, Z21, Z29
	VMULPD       Z19, Z22, Z30
	VMULPD       Z19, Z23, Z31
	VADDPD       Z28, Z3, Z3
	VADDPD       Z29, Z7, Z7
	VADDPD       Z30, Z11, Z11
	VADDPD       Z31, Z15, Z15

tile4next:
	INCQ CX
	CMPQ CX, R14
	JLT  tile4k

	LEAQ    (DI)(R12*2), AX
	ADDQ    R12, AX
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K3, 128(DI)
	VMOVUPD Z3, K4, 192(DI)
	VMOVUPD Z4, K1, (DI)(R12*1)
	VMOVUPD Z5, K2, 64(DI)(R12*1)
	VMOVUPD Z6, K3, 128(DI)(R12*1)
	VMOVUPD Z7, K4, 192(DI)(R12*1)
	VMOVUPD Z8, K1, (DI)(R12*2)
	VMOVUPD Z9, K2, 64(DI)(R12*2)
	VMOVUPD Z10, K3, 128(DI)(R12*2)
	VMOVUPD Z11, K4, 192(DI)(R12*2)
	VMOVUPD Z12, K1, (AX)
	VMOVUPD Z13, K2, 64(AX)
	VMOVUPD Z14, K3, 128(AX)
	VMOVUPD Z15, K4, 192(AX)

	LEAQ (DI)(R12*4), DI
	LEAQ (SI)(R13*4), SI
	SUBQ $4, R9
	JMP  tile4rows

tile1rows:
	TESTQ R9, R9
	JZ    tiledone

	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	VMOVUPD.Z 128(DI), K3, Z2
	VMOVUPD.Z 192(DI), K4, Z3
	MOVQ      q0+40(FP), CX

tile1k:
	MOVQ  CX, AX
	TESTQ R8, R8
	JZ    tile1idx
	MOVQ  (R8)(CX*8), AX

tile1idx:
	MOVQ         AX, BX
	IMULQ        R11, AX
	IMULQ        R10, BX
	ADDQ         SI, AX
	ADDQ         DX, BX
	VBROADCASTSD (AX), Z20
	VMULPD.Z     (BX), Z20, K1, Z24
	VADDPD       Z24, Z0, Z0
	KORTESTW     K2, K2
	JZ           tile1next
	VMULPD.Z     64(BX), Z20, K2, Z25
	VADDPD       Z25, Z1, Z1
	KORTESTW     K3, K3
	JZ           tile1next
	VMULPD.Z     128(BX), Z20, K3, Z26
	VADDPD       Z26, Z2, Z2
	KORTESTW     K4, K4
	JZ           tile1next
	VMULPD.Z     192(BX), Z20, K4, Z27
	VADDPD       Z27, Z3, Z3

tile1next:
	INCQ CX
	CMPQ CX, R14
	JLT  tile1k

	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K3, 128(DI)
	VMOVUPD Z3, K4, 192(DI)
	ADDQ    R12, DI
	ADDQ    R13, SI
	DECQ    R9
	JMP     tile1rows

tiledone:
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, lr, beta1, omb1, beta2, omb2, eps, c1, c2 float64)
//
// One Adam update of four elements per iteration, len(w) a multiple of 4:
// m = beta1·m + omb1·g; v = beta2·v + (omb2·g)·g;
// w = w - (lr·(m/c1)) / (sqrt(v/c2) + eps), each operation rounded on
// its own as in adamGeneric.
TEXT ·adamAVX2(SB), NOSPLIT, $0-160
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	VBROADCASTSD lr+96(FP), Y8
	VBROADCASTSD beta1+104(FP), Y9
	VBROADCASTSD omb1+112(FP), Y10
	VBROADCASTSD beta2+120(FP), Y11
	VBROADCASTSD omb2+128(FP), Y12
	VBROADCASTSD eps+136(FP), Y13
	VBROADCASTSD c1+144(FP), Y14
	VBROADCASTSD c2+152(FP), Y15
	SHRQ         $2, CX
	JZ           adamdone

adamloop:
	VMOVUPD (SI), Y0
	VMULPD  (R8), Y9, Y1
	VMULPD  Y0, Y10, Y2
	VADDPD  Y2, Y1, Y1      // m
	VMOVUPD Y1, (R8)
	VMULPD  (R9), Y11, Y3
	VMULPD  Y0, Y12, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3      // v
	VMOVUPD Y3, (R9)
	VDIVPD  Y14, Y1, Y1     // m / c1
	VDIVPD  Y15, Y3, Y3     // v / c2
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3
	VMULPD  Y1, Y8, Y1
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     adamloop

adamdone:
	VZEROUPPER
	RET
