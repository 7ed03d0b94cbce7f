//go:build amd64 && !purego

#include "textflag.h"

// The kernels score n rows of d floats against q — contiguous rows, or
// rows named by id further down — one row after the other, each row in
// the accumulation order of the portable loops in kernel.go — so the
// two tiers return the same bits:
//
//	X0 = (s0, s1, s2, s3)   lane j sums the terms of elements j, j+4, j+8, ...
//	8-float step:  terms in Y1; X0 += low half, then X0 += high half
//	4-float step:  X0 += terms
//	1-float steps: s0 += term (the d&3 trailing elements)
//	result:        ((s0 + s1) + s2) + s3
//
// Multiplies and adds are separate instructions (no FMA), as in the
// portable loops. Consecutive rows are independent, so the core
// overlaps their add chains; that, and eight floats per load, is the
// whole speed-up. Every load is exactly as wide as the floats that
// remain, so a row is never read past its end.
//
// A block streams from L3 or memory, and one row's ~150 instructions
// fill too much of the reorder window for the loads of the rows behind
// it to start early, so the 8-float loop prefetches prefetchAhead bytes
// ahead of itself (+25 % rows/s on a 32 MB block, nothing in cache).
// Only inside the block, though: on a row that ends less than that far
// before the block does — every row of a single-row call — the
// prefetch names the line being loaded anyway, so scoring one row does
// not drag in the rows stored after it.
//
// The bounded L2 kernels (the *CutAVX functions) add one step to the
// 8-float loop: at every cutEvery-float point of the row with floats
// still to come they fold the accumulators as FINISH does, and a
// partial sum above the bound in X3 is stored in place of the score
// and the row is cut (kernel.go holds the argument that this loses no
// hit). A cut row reads its first cutEvery floats or a few times that,
// not the whole row, so those kernels prefetch cutAhead bytes ahead
// instead: far enough to cover the rows the cuts now race through. A
// serial top-10 scan of 20 000 clustered 128-float rows took
// 553/475/433/450 µs at 1/2/4/8 KiB. With an infinite bound the
// wrappers call the unbounded kernels, whose loop has no such step.
//
// Register use: SI q, DI current row, AX byte offset in the row,
// DX row bytes, R9/R10/R11 last offset at which an 8/4/1-float step
// still fits, BX rows left, R8 out, R12 last row start that still
// prefetches ahead, R13 DI plus the row's prefetch distance; in the
// bounded kernels X3 the bound and R15 the rows cut.

#define prefetchAhead 1024
#define cutAhead 4096
#define cutEvery 32 // kernel.go's cutEvery: both tiers cut at the same points

#define PROLOGUE(ahead) \
	MOVQ q+0(FP), SI \
	MOVQ rows+8(FP), DI \
	MOVQ d+16(FP), DX \
	MOVQ n+24(FP), BX \
	MOVQ out+32(FP), R8 \
	SHLQ $2, DX \
	LEAQ -32(DX), R9 \
	LEAQ -16(DX), R10 \
	LEAQ -4(DX), R11 \
	MOVQ DX, R12 \
	IMULQ BX, R12 \
	ADDQ DI, R12 \
	SUBQ DX, R12 \
	SUBQ $ahead, R12 \
	TESTQ BX, BX \
	JZ   done

// ROWSTART clears the accumulators and picks the row's prefetch base.
#define ROWSTART(ahead) \
	VXORPS   X0, X0, X0 \
	XORQ     AX, AX \
	LEAQ     ahead(DI), R13 \
	CMPQ     DI, R12 \
	CMOVQGT  DI, R13

// ACCUM8 adds the eight terms in Y1 to the accumulators, low half
// first.
#define ACCUM8 \
	VADDPS       X1, X0, X0 \
	VEXTRACTF128 $1, Y1, X1 \
	VADDPS       X1, X0, X0

// FOLD sums the accumulators into X2 as ((s0 + s1) + s2) + s3.
#define FOLD \
	VMOVSHDUP X0, X1 \
	VADDSS    X1, X0, X2 \
	VPERMILPS $2, X0, X1 \
	VADDSS    X1, X2, X2 \
	VPERMILPS $3, X0, X1 \
	VADDSS    X1, X2, X2

// STORE stores X2 as the row's score and moves on to the next row.
#define STORE \
	VMOVSS    X2, (R8) \
	ADDQ      $4, R8 \
	ADDQ      DX, DI \
	DECQ      BX \
	JNZ       row

// FINISH folds the accumulators, stores the score and moves on to the
// next row.
#define FINISH \
	FOLD \
	STORE

// L2ROW and DOTROW score the row at DI into the accumulators; the
// labels make each usable once per function.
#define L2ROW \
	CMPQ   AX, R9 \
	JGT    step4 \
step8: \
	PREFETCHT0 (R13)(AX*1) \
	VMOVUPS (SI)(AX*1), Y1 \
	VSUBPS  (DI)(AX*1), Y1, Y1 \
	VMULPS  Y1, Y1, Y1 \
	ACCUM8 \
	ADDQ    $32, AX \
	CMPQ    AX, R9 \
	JLE     step8 \
step4: \
	CMPQ    AX, R10 \
	JGT     step1 \
	VMOVUPS (SI)(AX*1), X1 \
	VSUBPS  (DI)(AX*1), X1, X1 \
	VMULPS  X1, X1, X1 \
	VADDPS  X1, X0, X0 \
	ADDQ    $16, AX \
step1: \
	CMPQ    AX, R11 \
	JGT     finish \
	VMOVSS  (SI)(AX*1), X1 \
	VSUBSS  (DI)(AX*1), X1, X1 \
	VMULSS  X1, X1, X1 \
	VADDSS  X1, X0, X0 \
	ADDQ    $4, AX \
	JMP     step1 \
finish:

#define DOTROW \
	CMPQ   AX, R9 \
	JGT    step4 \
step8: \
	PREFETCHT0 (R13)(AX*1) \
	VMOVUPS (SI)(AX*1), Y1 \
	VMULPS  (DI)(AX*1), Y1, Y1 \
	ACCUM8 \
	ADDQ    $32, AX \
	CMPQ    AX, R9 \
	JLE     step8 \
step4: \
	CMPQ    AX, R10 \
	JGT     step1 \
	VMOVUPS (SI)(AX*1), X1 \
	VMULPS  (DI)(AX*1), X1, X1 \
	VADDPS  X1, X0, X0 \
	ADDQ    $16, AX \
step1: \
	CMPQ    AX, R11 \
	JGT     finish \
	VMOVSS  (SI)(AX*1), X1 \
	VMULSS  (DI)(AX*1), X1, X1 \
	VADDSS  X1, X0, X0 \
	ADDQ    $4, AX \
	JMP     step1 \
finish:

// L2ROWCUT is L2ROW with the cut step of the bounded kernels: at each
// 128-byte point short of the row's end it folds the partial sum into
// X2 and jumps to cut when it is above X3. VUCOMISS leaves CF and ZF
// clear only for an ordered X2 > X3, so a NaN partial sum goes on.
#define L2ROWCUT \
	CMPQ   AX, R9 \
	JGT    step4 \
step8: \
	PREFETCHT0 (R13)(AX*1) \
	VMOVUPS (SI)(AX*1), Y1 \
	VSUBPS  (DI)(AX*1), Y1, Y1 \
	VMULPS  Y1, Y1, Y1 \
	ACCUM8 \
	ADDQ    $32, AX \
	TESTQ   $(4*cutEvery-1), AX \
	JNZ     next8 \
	CMPQ    AX, DX \
	JGE     next8 \
	FOLD \
	VUCOMISS X3, X2 \
	JHI     cut \
next8: \
	CMPQ    AX, R9 \
	JLE     step8 \
step4: \
	CMPQ    AX, R10 \
	JGT     step1 \
	VMOVUPS (SI)(AX*1), X1 \
	VSUBPS  (DI)(AX*1), X1, X1 \
	VMULPS  X1, X1, X1 \
	VADDPS  X1, X0, X0 \
	ADDQ    $16, AX \
step1: \
	CMPQ    AX, R11 \
	JGT     finish \
	VMOVSS  (SI)(AX*1), X1 \
	VSUBSS  (DI)(AX*1), X1, X1 \
	VMULSS  X1, X1, X1 \
	VADDSS  X1, X0, X0 \
	ADDQ    $4, AX \
	JMP     step1 \
finish:

// The gather kernels score the rows that n ids name, each with the row
// macros above, so a gathered row gets the bits it gets in a block.
// The rows of a neighbour list or an inverted list are scattered, each
// a fresh miss that the core cannot start early for the same reason as
// above, so while one row is scored the loop prefetches the row `ahead`
// ids on — through the same PREFETCHT0, whose base R13 is now that row.
// Near the end of the list it is the row being scored: an id is only
// ever read from inside the list.
//
// As with the contiguous kernels, the bounded gather races through the
// rows it cuts, so it looks further ahead: gatherCutAhead ids against
// the unbounded kernels' gatherAhead. On 20 000 clustered 128-float
// rows (internal/index BenchmarkGatherProbe, 2-vCPU Xeon, two sweeps of
// nine interleaved runs) an ivfflat probe of 8 of 32 lists took a
// median 146 and 158 µs at 2 ids ahead, 132 and 137 µs at 6; 8 and 12
// ahead were within noise of 6, and 16 slower. The unbounded kernels
// serve graph traversals and stay at 2.
//
// Register use beyond the contiguous kernels': CX data, R12 the id of
// the current row (a pointer into ids).

#define gatherAhead 2
#define gatherCutAhead 6

#define GATHERPROLOGUE \
	MOVQ q+0(FP), SI \
	MOVQ data+8(FP), CX \
	MOVQ ids+16(FP), R12 \
	MOVQ d+24(FP), DX \
	MOVQ n+32(FP), BX \
	MOVQ out+40(FP), R8 \
	SHLQ $2, DX \
	LEAQ -32(DX), R9 \
	LEAQ -16(DX), R10 \
	LEAQ -4(DX), R11 \
	TESTQ BX, BX \
	JZ   done

#define GATHERROWSTART(ahead) \
	VXORPS   X0, X0, X0 \
	XORQ     AX, AX \
	MOVLQSX  (R12), DI \
	IMULQ    DX, DI \
	ADDQ     CX, DI \
	LEAQ     (4*ahead)(R12), R13 \
	CMPQ     BX, $ahead \
	CMOVQLE  R12, R13 \
	MOVLQSX  (R13), R13 \
	IMULQ    DX, R13 \
	ADDQ     CX, R13 \
	ADDQ     $4, R12

// func l2RowsAVX(q, rows *float32, d, n int, out *float32)
//
// out[i] = sum_j (q[j] - rows[i*d+j])^2 for i in [0, n).
TEXT ·l2RowsAVX(SB), NOSPLIT, $0-40
	PROLOGUE(prefetchAhead)
row:
	ROWSTART(prefetchAhead)
	L2ROW
	FINISH
done:
	VZEROUPPER
	RET

// func l2RowsCutAVX(q, rows *float32, d, n int, out *float32, bound float32) int
//
// l2RowsAVX, except that a row whose partial sum passes bound is cut:
// out[i] is that partial sum. Returns the rows cut.
TEXT ·l2RowsCutAVX(SB), NOSPLIT, $0-56
	VMOVSS bound+40(FP), X3
	XORQ   R15, R15
	PROLOGUE(cutAhead)
row:
	ROWSTART(cutAhead)
	L2ROWCUT
	FINISH
	JMP done
cut:
	INCQ R15
	STORE
done:
	MOVQ R15, ret+48(FP)
	VZEROUPPER
	RET

// func dotRowsAVX(q, rows *float32, d, n int, out *float32)
//
// out[i] = sum_j q[j] * rows[i*d+j] for i in [0, n).
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-40
	PROLOGUE(prefetchAhead)
row:
	ROWSTART(prefetchAhead)
	DOTROW
	FINISH
done:
	VZEROUPPER
	RET

// func l2GatherAVX(q, data *float32, ids *int32, d, n int, out *float32)
//
// out[i] = sum_j (q[j] - data[ids[i]*d+j])^2 for i in [0, n).
TEXT ·l2GatherAVX(SB), NOSPLIT, $0-48
	GATHERPROLOGUE
row:
	GATHERROWSTART(gatherAhead)
	L2ROW
	FINISH
done:
	VZEROUPPER
	RET

// func l2GatherCutAVX(q, data *float32, ids *int32, d, n int, out *float32, bound float32) int
//
// l2GatherAVX with the bound of l2RowsCutAVX. Returns the rows cut.
TEXT ·l2GatherCutAVX(SB), NOSPLIT, $0-64
	VMOVSS bound+48(FP), X3
	XORQ   R15, R15
	GATHERPROLOGUE
row:
	GATHERROWSTART(gatherCutAhead)
	L2ROWCUT
	FINISH
	JMP done
cut:
	INCQ R15
	STORE
done:
	MOVQ R15, ret+56(FP)
	VZEROUPPER
	RET

// func dotGatherAVX(q, data *float32, ids *int32, d, n int, out *float32)
//
// out[i] = sum_j q[j] * data[ids[i]*d+j] for i in [0, n).
TEXT ·dotGatherAVX(SB), NOSPLIT, $0-48
	GATHERPROLOGUE
row:
	GATHERROWSTART(gatherAhead)
	DOTROW
	FINISH
done:
	VZEROUPPER
	RET

// func Prefetch(p unsafe.Pointer)
TEXT ·Prefetch(SB), NOSPLIT, $0-8
	MOVQ       p+0(FP), AX
	PREFETCHT0 (AX)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
