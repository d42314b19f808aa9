#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The segmented-sum tile of 8 vectors. Vector j's sum lives in lane j
// of a YMM pair (lanes 0-3 in the first register, 4-7 in the second),
// so one nonzero is one VBROADCASTSD of its value and two
// multiply-add pairs on its 64-byte tile line xi[c*8:c*8+8]. Each
// chain follows the Go body's instructions lane by lane, multiply then
// add and never fused, with the operand order the compiler gives
// DotBlock's MULSD/ADDSD (the first source is the NaN an x86 operation
// returns when both operands are NaNs):
//
//	scalar rows (length < 4):  sum = sum + v*x
//	chains and remainder:      acc = x*v + acc
//	reduction:                 (a3+a1) + (a2+a0)
//
// Registers:
//	SI vals, DI col, R8 xi, R9 Y's slice headers, R14 len(xi)/8
//	R10 the current segment, R11 the end of its touch block, R12 the
//	end of segs, R13 the stored-segment count
//	DX k, CX hi, BX the end of the chain groups, AX a column
//	Y0/Y1 the sum, Y2-Y9 chains a0..a3, Y10 the value, Y11/Y12 x*v

// STEP adds nonzero k+i (coff = 4i, voff = 8i) into the chain held in
// A0/A1.
#define STEP(coff, voff, A0, A1) \
	MOVL         coff(DI)(DX*4), AX; \
	SHLQ         $6, AX; \
	VBROADCASTSD voff(SI)(DX*8), Y10; \
	VMOVUPD      (R8)(AX*1), Y11; \
	VMOVUPD      32(R8)(AX*1), Y12; \
	VMULPD       Y10, Y11, Y11; \
	VMULPD       Y10, Y12, Y12; \
	VADDPD       A0, Y11, A0; \
	VADDPD       A1, Y12, A1

// ZERO4 clears chains a0..a3.
#define ZERO4 \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	VXORPD Y8, Y8, Y8; \
	VXORPD Y9, Y9, Y9

// REDUCE4 sets D0/D1 to (a3+a1) + (a2+a0).
#define REDUCE4(D0, D1) \
	VADDPD Y2, Y6, Y6; \
	VADDPD Y3, Y7, Y7; \
	VADDPD Y4, Y8, Y8; \
	VADDPD Y5, Y9, Y9; \
	VADDPD Y6, Y8, D0; \
	VADDPD Y7, Y9, D1

// func segSumBlock8AVX2(vals []float64, col []uint32, xi []float64, Y [][]float64, segs []Segment, unrollLen, nnz, ylen int) (done, next int)
TEXT ·segSumBlock8AVX2(SB), NOSPLIT, $0-160
	MOVQ vals_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ xi_base+48(FP), R8
	MOVQ xi_len+56(FP), R14
	SHRQ $3, R14
	MOVQ Y_base+72(FP), R9
	MOVQ segs_base+96(FP), R10
	MOVQ segs_len+104(FP), R12
	LEAQ (R12)(R12*2), R12
	LEAQ (R10)(R12*4), R12
	XORQ R13, R13

block:
	CMPQ R10, R12
	JCC  finish
	LEAQ 192(R10), R11 // touchSegs (16) descriptors of 12 bytes
	CMPQ R11, R12
	CMOVQHI R12, R11

	// Check and touch the block: the bounds the Go body's indexing
	// would have checked, and its touch of every nonzero's tile line as
	// a prefetch, which unlike a load does not hold the line's miss in
	// the out-of-order window until it retires.
	MOVQ R10, BX

check:
	CMPQ BX, R11
	JCC  seg
	MOVLQSX 0(BX), DX
	MOVLQSX 4(BX), CX
	MOVLQSX 8(BX), AX
	ADDQ $12, BX
	CMPQ CX, DX
	JLE  check         // empty: skipped, as in the Go body
	TESTQ DX, DX
	JLT  fail
	CMPQ CX, nnz+128(FP)
	JGT  fail
	CMPQ AX, ylen+136(FP)
	JCC  fail          // unsigned, so a negative Dst fails too

touch:
	MOVL (DI)(DX*4), AX
	CMPQ AX, R14
	JCC  fail
	SHLQ $6, AX
	PREFETCHT0 (R8)(AX*1)
	INCQ DX
	CMPQ DX, CX
	JLT  touch
	JMP  check

seg:
	CMPQ R10, R11
	JCC  block
	MOVLQSX 0(R10), DX
	MOVLQSX 4(R10), CX
	MOVQ CX, BX
	SUBQ DX, BX
	JLE  nextseg
	CMPQ BX, $4
	JLT  short
	CMPQ BX, unrollLen+120(FP)
	JGE  long

	// 4 chains: nonzero k joins chain (k-lo)%4.
	ANDQ $-4, BX
	ADDQ DX, BX
	ZERO4

loop4:
	STEP(0, 0, Y2, Y3)
	STEP(4, 8, Y4, Y5)
	STEP(8, 16, Y6, Y7)
	STEP(12, 24, Y8, Y9)
	ADDQ $4, DX
	CMPQ DX, BX
	JLT  loop4
	REDUCE4(Y0, Y1)
	JMP  rem

long:
	// 8 chains, as two passes of 4: chains 0-3 take nonzeros
	// lo+8g+0..3, chains 4-7 lo+8g+4..7. The first pass's (a3+a1) +
	// (a2+a0) waits in Y0/Y1 for the second's (a7+a5) + (a6+a4).
	ANDQ $-8, BX
	ADDQ DX, BX
	ZERO4
	CMPQ DX, BX
	JGE  passA

loopA:
	STEP(0, 0, Y2, Y3)
	STEP(4, 8, Y4, Y5)
	STEP(8, 16, Y6, Y7)
	STEP(12, 24, Y8, Y9)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  loopA

passA:
	REDUCE4(Y0, Y1)
	ZERO4
	MOVLQSX 0(R10), DX
	ADDQ $4, DX
	CMPQ DX, BX
	JGE  passB

loopB:
	STEP(0, 0, Y2, Y3)
	STEP(4, 8, Y4, Y5)
	STEP(8, 16, Y6, Y7)
	STEP(12, 24, Y8, Y9)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  loopB

passB:
	REDUCE4(Y13, Y14)
	VADDPD Y13, Y0, Y0
	VADDPD Y14, Y1, Y1
	MOVQ BX, DX

rem:
	// The sequential remainder after the reduction.
	CMPQ DX, CX
	JGE  store

remloop:
	STEP(0, 0, Y0, Y1)
	INCQ DX
	CMPQ DX, CX
	JLT  remloop
	JMP  store

short:
	// Rows below ScalarThreshold: one chain from +0.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

shortloop:
	MOVL         (DI)(DX*4), AX
	SHLQ         $6, AX
	VBROADCASTSD (SI)(DX*8), Y10
	VMULPD       (R8)(AX*1), Y10, Y11
	VMULPD       32(R8)(AX*1), Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	INCQ         DX
	CMPQ         DX, CX
	JLT          shortloop

store:
	// Y[j][Dst] = lane j, in the Go body's order j = 0..7.
	MOVLQSX      8(R10), DX
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3
	MOVQ         0(R9), AX
	VMOVSD       X0, (AX)(DX*8)
	MOVQ         24(R9), AX
	VMOVHPD      X0, (AX)(DX*8)
	MOVQ         48(R9), AX
	VMOVSD       X2, (AX)(DX*8)
	MOVQ         72(R9), AX
	VMOVHPD      X2, (AX)(DX*8)
	MOVQ         96(R9), AX
	VMOVSD       X1, (AX)(DX*8)
	MOVQ         120(R9), AX
	VMOVHPD      X1, (AX)(DX*8)
	MOVQ         144(R9), AX
	VMOVSD       X3, (AX)(DX*8)
	MOVQ         168(R9), AX
	VMOVHPD      X3, (AX)(DX*8)
	INCQ         R13

nextseg:
	ADDQ $12, R10
	JMP  seg

finish:
	MOVQ segs_len+104(FP), AX
	JMP  ret

fail:
	// next = the failing block's first segment, (R10-segs)/12.
	MOVQ R10, AX
	SUBQ segs_base+96(FP), AX
	XORL DX, DX
	MOVQ $12, CX
	DIVQ CX

ret:
	MOVQ R13, done+144(FP)
	MOVQ AX, next+152(FP)
	VZEROUPPER
	RET

// The segmented-sum tile of 4 vectors: segSumBlock8AVX2 with one YMM
// per chain (vector j in lane j) and 32-byte tile lines xi[c*4:c*4+4].
// Its 8 chains fit in Y2-Y9, so a long row takes them in one pass. The
// operand orders are segSumBlock8AVX2's.
//
// Registers: as segSumBlock8AVX2, R14 len(xi)/4.

// STEP4 adds nonzero k+i (coff = 4i, voff = 8i) into chain A.
#define STEP4(coff, voff, A) \
	MOVL         coff(DI)(DX*4), AX; \
	SHLQ         $5, AX; \
	VBROADCASTSD voff(SI)(DX*8), Y10; \
	VMOVUPD      (R8)(AX*1), Y11; \
	VMULPD       Y10, Y11, Y11; \
	VADDPD       A, Y11, A

// func segSumBlock4AVX2(vals []float64, col []uint32, xi []float64, Y [][]float64, segs []Segment, unrollLen, nnz, ylen int) (done, next int)
TEXT ·segSumBlock4AVX2(SB), NOSPLIT, $0-160
	MOVQ vals_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ xi_base+48(FP), R8
	MOVQ xi_len+56(FP), R14
	SHRQ $2, R14
	MOVQ Y_base+72(FP), R9
	MOVQ segs_base+96(FP), R10
	MOVQ segs_len+104(FP), R12
	LEAQ (R12)(R12*2), R12
	LEAQ (R10)(R12*4), R12
	XORQ R13, R13

block4:
	CMPQ R10, R12
	JCC  finish4
	LEAQ 192(R10), R11
	CMPQ R11, R12
	CMOVQHI R12, R11
	MOVQ R10, BX

check4:
	CMPQ BX, R11
	JCC  seg4
	MOVLQSX 0(BX), DX
	MOVLQSX 4(BX), CX
	MOVLQSX 8(BX), AX
	ADDQ $12, BX
	CMPQ CX, DX
	JLE  check4
	TESTQ DX, DX
	JLT  fail4
	CMPQ CX, nnz+128(FP)
	JGT  fail4
	CMPQ AX, ylen+136(FP)
	JCC  fail4

touch4:
	MOVL (DI)(DX*4), AX
	CMPQ AX, R14
	JCC  fail4
	SHLQ $5, AX
	PREFETCHT0 (R8)(AX*1)
	INCQ DX
	CMPQ DX, CX
	JLT  touch4
	JMP  check4

seg4:
	CMPQ R10, R11
	JCC  block4
	MOVLQSX 0(R10), DX
	MOVLQSX 4(R10), CX
	MOVQ CX, BX
	SUBQ DX, BX
	JLE  nextseg4
	CMPQ BX, $4
	JLT  short4
	CMPQ BX, unrollLen+120(FP)
	JGE  long4

	// 4 chains: nonzero k joins chain (k-lo)%4.
	ANDQ $-4, BX
	ADDQ DX, BX
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

loop4:
	STEP4(0, 0, Y2)
	STEP4(4, 8, Y3)
	STEP4(8, 16, Y4)
	STEP4(12, 24, Y5)
	ADDQ $4, DX
	CMPQ DX, BX
	JLT  loop4
	VADDPD Y3, Y5, Y5
	VADDPD Y2, Y4, Y4
	VADDPD Y4, Y5, Y0
	JMP  rem4

long4:
	// 8 chains: nonzero k joins chain (k-lo)%8, then (a3+a1) + (a2+a0)
	// plus (a7+a5) + (a6+a4).
	ANDQ $-8, BX
	ADDQ DX, BX
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	CMPQ DX, BX
	JGE  reduce8

loop8:
	STEP4(0, 0, Y2)
	STEP4(4, 8, Y3)
	STEP4(8, 16, Y4)
	STEP4(12, 24, Y5)
	STEP4(16, 32, Y6)
	STEP4(20, 40, Y7)
	STEP4(24, 48, Y8)
	STEP4(28, 56, Y9)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  loop8

reduce8:
	VADDPD Y3, Y5, Y5
	VADDPD Y2, Y4, Y4
	VADDPD Y4, Y5, Y0
	VADDPD Y7, Y9, Y9
	VADDPD Y6, Y8, Y8
	VADDPD Y8, Y9, Y1
	VADDPD Y1, Y0, Y0

rem4:
	CMPQ DX, CX
	JGE  store4

remloop4:
	STEP4(0, 0, Y0)
	INCQ DX
	CMPQ DX, CX
	JLT  remloop4
	JMP  store4

short4:
	VXORPD Y0, Y0, Y0

shortloop4:
	MOVL         (DI)(DX*4), AX
	SHLQ         $5, AX
	VBROADCASTSD (SI)(DX*8), Y10
	VMULPD       (R8)(AX*1), Y10, Y11
	VADDPD       Y11, Y0, Y0
	INCQ         DX
	CMPQ         DX, CX
	JLT          shortloop4

store4:
	MOVLQSX      8(R10), DX
	VEXTRACTF128 $1, Y0, X2
	MOVQ         0(R9), AX
	VMOVSD       X0, (AX)(DX*8)
	MOVQ         24(R9), AX
	VMOVHPD      X0, (AX)(DX*8)
	MOVQ         48(R9), AX
	VMOVSD       X2, (AX)(DX*8)
	MOVQ         72(R9), AX
	VMOVHPD      X2, (AX)(DX*8)
	INCQ         R13

nextseg4:
	ADDQ $12, R10
	JMP  seg4

finish4:
	MOVQ segs_len+104(FP), AX
	JMP  ret4

fail4:
	MOVQ R10, AX
	SUBQ segs_base+96(FP), AX
	XORL DX, DX
	MOVQ $12, CX
	DIVQ CX

ret4:
	MOVQ R13, done+144(FP)
	MOVQ AX, next+152(FP)
	VZEROUPPER
	RET

// The single-vector segmented sum, SegSum over float64 values and
// uint32 columns: one scalar chain per lane of Dot's dispatch (X2-X5
// below unrollLen, X2-X9 from it on), in x86Oracle's operand order, as
// the tiles. Unlike the tiles it checks each segment as it reaches it
// and every column as it loads it; a failing segment stores nothing.
//
// Registers:
//	SI vals, DI col, R8 x, R9 y, R14 len(x)
//	R10 the current segment, R12 the end of segs, R13 the stored-segment
//	count, DX k, CX hi, BX the end of the chain groups, AX a column
//	X0 the sum, X1 the second reduction half, X2-X9 the chains, X10 x*v

// STEP1 adds nonzero k+i (coff = 4i, voff = 8i) into chain A.
#define STEP1(coff, voff, A) \
	MOVL   coff(DI)(DX*4), AX; \
	CMPQ   AX, R14; \
	JCC    fail1; \
	VMOVSD (R8)(AX*8), X10; \
	VMULSD voff(SI)(DX*8), X10, X10; \
	VADDSD A, X10, A

// func segSumAVX2(vals []float64, col []uint32, x, y []float64, segs []Segment, unrollLen, nnz int) (done, next int)
TEXT ·segSumAVX2(SB), NOSPLIT, $0-152
	MOVQ vals_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ x_base+48(FP), R8
	MOVQ x_len+56(FP), R14
	MOVQ y_base+72(FP), R9
	MOVQ segs_base+96(FP), R10
	MOVQ segs_len+104(FP), R12
	LEAQ (R12)(R12*2), R12
	LEAQ (R10)(R12*4), R12
	XORQ R13, R13

seg1:
	CMPQ R10, R12
	JCC  finish1
	MOVLQSX 0(R10), DX
	MOVLQSX 4(R10), CX
	MOVQ CX, BX
	SUBQ DX, BX
	JLE  nextseg1      // empty: skipped, as in the Go body
	TESTQ DX, DX
	JLT  fail1
	CMPQ CX, nnz+128(FP)
	JGT  fail1
	MOVLQSX 8(R10), AX
	CMPQ AX, y_len+80(FP)
	JCC  fail1         // unsigned, so a negative Dst fails too
	CMPQ BX, $4
	JLT  short1
	CMPQ BX, unrollLen+120(FP)
	JGE  long1

	// 4 chains: nonzero k joins chain (k-lo)%4.
	ANDQ $-4, BX
	ADDQ DX, BX
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5

loop41:
	STEP1(0, 0, X2)
	STEP1(4, 8, X3)
	STEP1(8, 16, X4)
	STEP1(12, 24, X5)
	ADDQ $4, DX
	CMPQ DX, BX
	JLT  loop41
	VADDSD X3, X5, X5
	VADDSD X2, X4, X4
	VADDSD X4, X5, X0
	JMP  rem1

long1:
	ANDQ $-8, BX
	ADDQ DX, BX
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9
	CMPQ DX, BX
	JGE  reduce81

loop81:
	STEP1(0, 0, X2)
	STEP1(4, 8, X3)
	STEP1(8, 16, X4)
	STEP1(12, 24, X5)
	STEP1(16, 32, X6)
	STEP1(20, 40, X7)
	STEP1(24, 48, X8)
	STEP1(28, 56, X9)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  loop81

reduce81:
	VADDSD X3, X5, X5
	VADDSD X2, X4, X4
	VADDSD X4, X5, X0
	VADDSD X7, X9, X9
	VADDSD X6, X8, X8
	VADDSD X8, X9, X1
	VADDSD X1, X0, X0

rem1:
	CMPQ DX, CX
	JGE  store1

remloop1:
	STEP1(0, 0, X0)
	INCQ DX
	CMPQ DX, CX
	JLT  remloop1
	JMP  store1

short1:
	VXORPD X0, X0, X0

shortloop1:
	MOVL   (DI)(DX*4), AX
	CMPQ   AX, R14
	JCC    fail1
	VMOVSD (SI)(DX*8), X10
	VMULSD (R8)(AX*8), X10, X10
	VADDSD X10, X0, X0
	INCQ   DX
	CMPQ   DX, CX
	JLT    shortloop1

store1:
	MOVLQSX 8(R10), AX
	VMOVSD  X0, (R9)(AX*8)
	INCQ    R13

nextseg1:
	ADDQ $12, R10
	JMP  seg1

finish1:
	MOVQ segs_len+104(FP), AX
	JMP  ret1

fail1:
	// next = the failing segment, (R10-segs)/12.
	MOVQ R10, AX
	SUBQ segs_base+96(FP), AX
	XORL DX, DX
	MOVQ $12, CX
	DIVQ CX

ret1:
	MOVQ R13, done+136(FP)
	MOVQ AX, next+144(FP)
	VZEROUPPER
	RET
