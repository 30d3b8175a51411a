#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// COLUMN adds column col of the block — (x0[i], x1[i], x2[i], x3[i]), one
// row to a lane — times w_k[i] to class k's accumulator Yk, for the pass's
// four classes: w_k[i] is off(BX) plus class k's row offset (0, R9, R10,
// R11). Each product is rounded before its add: no fused multiply-add.
#define COLUMN(col, off) \
	VBROADCASTSD off(BX), Y10; \
	VMULPD       Y10, col, Y10; \
	VADDPD       Y10, Y0, Y0; \
	VBROADCASTSD off(BX)(R9*1), Y11; \
	VMULPD       Y11, col, Y11; \
	VADDPD       Y11, Y1, Y1; \
	VBROADCASTSD off(BX)(R10*1), Y12; \
	VMULPD       Y12, col, Y12; \
	VADDPD       Y12, Y2, Y2; \
	VBROADCASTSD off(BX)(R11*1), Y13; \
	VMULPD       Y13, col, Y13; \
	VADDPD       Y13, Y3, Y3

// func dot4xNAVX2(z, x, w *float64, n, c int) (nan bool)
//
// Registers: DI the pass's first logit z[k], DX its first class row w_k, BX
// and SI the walk along w_k and along row 0 of x, AX the columns left, R8
// the classes left, R9–R11 the byte offsets of classes k+1…k+3 from w_k, R12
// a row of x or w in bytes (n·8), R13 three of them, CX a row of z (c·8),
// Y14 the sum of every accumulator, NaN once any lane is.
TEXT ·dot4xNAVX2(SB), NOSPLIT, $0-41
	VXORPD Y14, Y14, Y14
	MOVQ   z+0(FP), DI
	MOVQ   w+16(FP), DX
	MOVQ   n+24(FP), R12
	SHLQ   $3, R12
	LEAQ   (R12)(R12*2), R13
	MOVQ   c+32(FP), R8
	MOVQ   R8, CX
	SHLQ   $3, CX

pass:
	MOVQ R12, R9
	LEAQ (R12)(R12*1), R10
	MOVQ R13, R11
	CMPQ R8, $4
	JGE  start

	// A tail of 1–3 classes: the missing ones read the last class's row.
	LEAQ    -1(R8), R11
	IMULQ   R12, R11
	CMPQ    R10, R11
	CMOVQGT R11, R10
	CMPQ    R9, R11
	CMOVQGT R11, R9

start:
	MOVQ   x+8(FP), SI
	MOVQ   DX, BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   n+24(FP), AX
	CMPQ   AX, $4
	JLT    tail

	// Four columns at a time: two loads per row pair and one unpack per
	// column transpose them into lanes.
	PCALIGN $32

quad:
	VMOVUPD     (SI), X4
	VINSERTF128 $1, (SI)(R12*2), Y4, Y4
	VMOVUPD     (SI)(R12*1), X5
	VINSERTF128 $1, (SI)(R13*1), Y5, Y5
	VUNPCKLPD   Y5, Y4, Y6
	VUNPCKHPD   Y5, Y4, Y7
	VMOVUPD     16(SI), X4
	VINSERTF128 $1, 16(SI)(R12*2), Y4, Y4
	VMOVUPD     16(SI)(R12*1), X5
	VINSERTF128 $1, 16(SI)(R13*1), Y5, Y5
	VUNPCKLPD   Y5, Y4, Y8
	VUNPCKHPD   Y5, Y4, Y9
	COLUMN(Y6, 0)
	COLUMN(Y7, 8)
	COLUMN(Y8, 16)
	COLUMN(Y9, 24)
	ADDQ        $32, SI
	ADDQ        $32, BX
	SUBQ        $4, AX
	CMPQ        AX, $4
	JGE         quad

tail:
	TESTQ AX, AX
	JEQ   store

one:
	VMOVSD      (SI), X4
	VMOVHPD     (SI)(R12*1), X4, X4
	VMOVSD      (SI)(R12*2), X5
	VMOVHPD     (SI)(R13*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	COLUMN(Y4, 0)
	ADDQ        $8, SI
	ADDQ        $8, BX
	DECQ        AX
	JNE         one

store:
	VADDPD Y0, Y14, Y14
	VADDPD Y1, Y14, Y14
	VADDPD Y2, Y14, Y14
	VADDPD Y3, Y14, Y14

	// Transpose the accumulators back to rows: X4/X8 hold rows 0/2 of
	// classes k, k+1, X5/X9 rows 1/3, and X6, X10, X7, X11 the same of
	// classes k+2, k+3.
	VUNPCKLPD    Y1, Y0, Y4
	VUNPCKHPD    Y1, Y0, Y5
	VUNPCKLPD    Y3, Y2, Y6
	VUNPCKHPD    Y3, Y2, Y7
	VEXTRACTF128 $1, Y4, X8
	VEXTRACTF128 $1, Y5, X9
	VEXTRACTF128 $1, Y6, X10
	VEXTRACTF128 $1, Y7, X11
	LEAQ         (CX)(CX*2), AX
	CMPQ         R8, $2
	JLT          store1
	VMOVUPD      X4, (DI)
	VMOVUPD      X5, (DI)(CX*1)
	VMOVUPD      X8, (DI)(CX*2)
	VMOVUPD      X9, (DI)(AX*1)
	CMPQ         R8, $3
	JLT          next
	JEQ          store3
	VMOVUPD      X6, 16(DI)
	VMOVUPD      X7, 16(DI)(CX*1)
	VMOVUPD      X10, 16(DI)(CX*2)
	VMOVUPD      X11, 16(DI)(AX*1)
	JMP          next

store3:
	VMOVSD X6, 16(DI)
	VMOVSD X7, 16(DI)(CX*1)
	VMOVSD X10, 16(DI)(CX*2)
	VMOVSD X11, 16(DI)(AX*1)
	JMP    next

store1:
	VMOVSD X4, (DI)
	VMOVSD X5, (DI)(CX*1)
	VMOVSD X8, (DI)(CX*2)
	VMOVSD X9, (DI)(AX*1)

next:
	ADDQ $32, DI
	LEAQ (DX)(R12*4), DX
	SUBQ $4, R8
	JGT  pass

	// An Inf−Inf in the sum reports a NaN that is not there; the caller's
	// look at z costs only time.
	VCMPPD    $3, Y14, Y14, Y14
	VMOVMSKPD Y14, AX
	TESTL     AX, AX
	SETNE     nan+40(FP)
	VZEROUPPER
	RET
