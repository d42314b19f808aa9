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
