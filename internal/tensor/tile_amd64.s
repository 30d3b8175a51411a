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

// The constants of LogSumExp4's and ExpShift4's exp and log, each splatted
// across the four lanes of a ymm memory operand: archExp's (math/exp_amd64.s)
// and archLog's (math/log_amd64.s) own literals, so that the assembler rounds
// them to the same bits, and the bit masks their sequences use.
#define SPLAT(off, v) \
	DATA expk<>+off+0(SB)/8, v; \
	DATA expk<>+off+8(SB)/8, v; \
	DATA expk<>+off+16(SB)/8, v; \
	DATA expk<>+off+24(SB)/8, v

SPLAT(0, $1.4426950408889634073599246810018920)                 // LOG2E
SPLAT(32, $0.69314718055966295651160180568695068359375)         // LN2U
SPLAT(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
SPLAT(96, $0.0625)
SPLAT(128, $2.4801587301587301587e-5)
SPLAT(160, $1.9841269841269841270e-4)
SPLAT(192, $1.3888888888888888889e-3)
SPLAT(224, $8.3333333333333333333e-3)
SPLAT(256, $4.1666666666666666667e-2)
SPLAT(288, $1.6666666666666666667e-1)
SPLAT(320, $0.5)
SPLAT(352, $1.0)
SPLAT(384, $2.0)
SPLAT(416, $7.09782712893384e+02)                              // Overflow
SPLAT(448, $0xFFF0000000000000)                                // -Inf
SPLAT(480, $0x000003FF000003FF)                                // exponent bias, as int32s
SPLAT(512, $0x000007FF000007FF)                                // a biased exponent's bound
SPLAT(544, $7.07106781186547524401e-01)                        // HSqrt2
SPLAT(576, $6.93147180369123816490e-01)                        // Ln2Hi
SPLAT(608, $1.90821492927058770002e-10)                        // Ln2Lo
SPLAT(640, $6.666666666666735130e-01)                          // L1
SPLAT(672, $3.999999999940941908e-01)                          // L2
SPLAT(704, $2.857142874366239149e-01)                          // L3
SPLAT(736, $2.222219843214978396e-01)                          // L4
SPLAT(768, $1.818357216161805012e-01)                          // L5
SPLAT(800, $1.531383769920937332e-01)                          // L6
SPLAT(832, $1.479819860511658591e-01)                          // L7
SPLAT(864, $0x000FFFFFFFFFFFFF)                                // mantissa
SPLAT(896, $0x4330000000000000)                                // 2⁵²
SPLAT(928, $0x43300000000003FE)                                // 2⁵² + 1022
SPLAT(960, $0x0010000000000000)                                // smallest normal
SPLAT(992, $0x7FF0000000000000)                                // +Inf
GLOBL expk<>(SB), RODATA|NOPTR, $1024

// LANES loads column k of a four-row block into the lanes of Y0, row r in
// lane r: ptr is the column's row-0 address, CX a row in bytes, DX three.
#define LANES(ptr) \
	VMOVSD      (ptr), X0; \
	VMOVHPD     (ptr)(CX*1), X0, X0; \
	VMOVSD      (ptr)(CX*2), X1; \
	VMOVHPD     (ptr)(DX*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0

// EXPHEAD starts archExp on the four lanes of Y0: it sets Y2 to the lanes
// on its fast path — finite, at most Overflow, and n = round(x·LOG2E) with
// n+0x3FF in (0, 0x7FF), so that neither the overflow nor the denormal
// branch is taken — Y1 to float64(n) and Y4 to 2ⁿ. Y3, Y5 and Y6 are
// scratch.
#define EXPHEAD \
	VCMPPD     $0x12, expk<>+416(SB), Y0, Y2; \
	VCMPPD     $0x1e, expk<>+448(SB), Y0, Y3; \
	VANDPD     Y3, Y2, Y2; \
	VMULPD     expk<>+0(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X4; \
	VCVTDQ2PD  X4, Y1; \
	VPADDD     expk<>+480(SB), X4, X4; \
	VPXOR      X5, X5, X5; \
	VPCMPGTD   X5, X4, X5; \
	VMOVDQU    expk<>+512(SB), X6; \
	VPCMPGTD   X4, X6, X6; \
	VPAND      X6, X5, X5; \
	VPMOVSXDQ  X5, Y5; \
	VANDPD     Y5, Y2, Y2; \
	VPMOVSXDQ  X4, Y4; \
	VPSLLQ     $52, Y4, Y4

// EXPPLAIN finishes exp(Y0) into Y0 with archExp's sequence when math.useFMA
// is false: every product rounded before its add.
#define EXPPLAIN \
	EXPHEAD; \
	VMULPD expk<>+32(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD expk<>+64(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD expk<>+96(SB), Y0, Y0; \
	VMULPD expk<>+128(SB), Y0, Y1; \
	VADDPD expk<>+160(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expk<>+192(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expk<>+224(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expk<>+256(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expk<>+288(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expk<>+320(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expk<>+352(SB), Y1, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expk<>+384(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expk<>+384(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expk<>+384(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expk<>+384(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expk<>+352(SB), Y0, Y0; \
	VMULPD Y4, Y0, Y0

// EXPFUSED is EXPPLAIN with math.useFMA true: fused exactly where archExp's
// avxfma branch fuses — the two reduction steps, the seven Horner steps and
// the last step — and nowhere else.
#define EXPFUSED \
	EXPHEAD; \
	VFNMADD231PD expk<>+32(SB), Y1, Y0; \
	VFNMADD231PD expk<>+64(SB), Y1, Y0; \
	VMULPD       expk<>+96(SB), Y0, Y0; \
	VMOVUPD      expk<>+128(SB), Y1; \
	VFMADD213PD  expk<>+160(SB), Y0, Y1; \
	VFMADD213PD  expk<>+192(SB), Y0, Y1; \
	VFMADD213PD  expk<>+224(SB), Y0, Y1; \
	VFMADD213PD  expk<>+256(SB), Y0, Y1; \
	VFMADD213PD  expk<>+288(SB), Y0, Y1; \
	VFMADD213PD  expk<>+320(SB), Y0, Y1; \
	VFMADD213PD  expk<>+352(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expk<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expk<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expk<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expk<>+384(SB), Y0, Y1; \
	VFMADD213PD  expk<>+352(SB), Y1, Y0; \
	VMULPD       Y4, Y0, Y0

// SUMSTEP adds exp(z_k − m) of the column at DI to the sums in Y13 and
// clears in Y15 the lanes off exp's fast path; exp is EXPPLAIN or EXPFUSED.
#define SUMSTEP(exp) \
	LANES(DI); \
	VSUBPD Y14, Y0, Y0; \
	exp; \
	VANDPD Y2, Y15, Y15; \
	VADDPD Y0, Y13, Y13

// func logSumExp4AVX2(lse *[4]float64, z *float64, c int, fused bool) (retake int)
//
// Registers: SI the block z (four rows of c), DI the walk along its columns,
// CX a row in bytes, DX three rows, AX the columns left, Y14 the row maxima,
// Y13 the sums, Y15 the lanes whose every exp, and whose sum, stayed on the
// fast path.
TEXT ·logSumExp4AVX2(SB), NOSPLIT, $0-40
	MOVQ z+8(FP), SI
	MOVQ c+16(FP), CX
	SHLQ $3, CX
	LEAQ (CX)(CX*2), DX

	// Each row's maximum in class order: VMAXPD's first source wins only
	// when it is greater, as `if v > m { m = v }` does, NaN included.
	LANES(SI)
	VMOVAPD Y0, Y14
	LEAQ    8(SI), DI
	MOVQ    c+16(FP), AX
	DECQ    AX
	JEQ     sum
	PCALIGN $32

max:
	LANES(DI)
	VMAXPD Y14, Y0, Y14
	ADDQ   $8, DI
	DECQ   AX
	JNE    max

sum:
	VXORPD   Y13, Y13, Y13
	VPCMPEQQ Y15, Y15, Y15
	MOVQ     SI, DI
	MOVQ     c+16(FP), AX
	CMPB     fused+24(FP), $0
	JNE      sumfused
	PCALIGN  $32

sumplain:
	SUMSTEP(EXPPLAIN)
	ADDQ $8, DI
	DECQ AX
	JNE  sumplain
	JMP  log
	PCALIGN $32

sumfused:
	SUMSTEP(EXPFUSED)
	ADDQ $8, DI
	DECQ AX
	JNE  sumfused

log:
	// A sum that is not a positive normal number leaves archLog's main
	// path; the lane is retaken.
	VCMPPD $0x1d, expk<>+960(SB), Y13, Y2
	VCMPPD $0x11, expk<>+992(SB), Y13, Y3
	VANDPD Y3, Y2, Y2
	VANDPD Y2, Y15, Y15

	// archLog(s), its operations in its order: f1 and k from the bits, the
	// √2/2 adjustment, then the two polynomials.
	VANDPD  expk<>+864(SB), Y13, Y2
	VORPD   expk<>+320(SB), Y2, Y2
	VPSRLQ  $52, Y13, Y1
	VPOR    expk<>+896(SB), Y1, Y1
	VSUBPD  expk<>+928(SB), Y1, Y1
	VCMPPD  $0x12, expk<>+544(SB), Y2, Y0
	VANDPD  expk<>+352(SB), Y0, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  expk<>+352(SB), Y3, Y3
	VMULPD  Y3, Y2, Y2
	VSUBPD  expk<>+352(SB), Y2, Y2
	VADDPD  expk<>+384(SB), Y2, Y0
	VDIVPD  Y0, Y2, Y3
	VMULPD  Y3, Y3, Y4
	VMULPD  Y4, Y4, Y5
	VMULPD  expk<>+832(SB), Y5, Y6
	VADDPD  expk<>+768(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  expk<>+704(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  expk<>+640(SB), Y6, Y6
	VMULPD  Y6, Y4, Y4
	VMULPD  expk<>+800(SB), Y5, Y6
	VADDPD  expk<>+736(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  expk<>+672(SB), Y6, Y6
	VMULPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  expk<>+320(SB), Y2, Y0
	VMULPD  Y2, Y0, Y0
	VADDPD  Y0, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  expk<>+608(SB), Y1, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y0, Y0
	VSUBPD  Y2, Y0, Y0
	VMULPD  expk<>+576(SB), Y1, Y1
	VSUBPD  Y0, Y1, Y1

	VADDPD    Y1, Y14, Y1
	MOVQ      lse+0(FP), DI
	VMOVUPD   Y1, (DI)
	VMOVMSKPD Y15, AX
	XORQ      $15, AX
	MOVQ      AX, retake+32(FP)
	VZEROUPPER
	RET

// SHIFTSTEP replaces the column at DI by exp(z_k − shift) when all four of
// its lanes are on exp's fast path, and otherwise leaves it and the rest of
// the block as they are and returns the columns done; exp is EXPPLAIN or
// EXPFUSED.
#define SHIFTSTEP(exp) \
	LANES(DI); \
	VSUBPD       Y14, Y0, Y0; \
	exp; \
	VMOVMSKPD    Y2, BX; \
	CMPL         BX, $15; \
	JNE          done; \
	VEXTRACTF128 $1, Y0, X1; \
	VMOVSD       X0, (DI); \
	VMOVHPD      X0, (DI)(CX*1); \
	VMOVSD       X1, (DI)(CX*2); \
	VMOVHPD      X1, (DI)(DX*1)

// func expShift4AVX2(z *float64, c int, shift *[4]float64, fused bool) (done int)
//
// Registers: DI the walk along the columns of the block z, CX a row in
// bytes, DX three rows, AX the columns done, R8 c, Y14 the shifts.
TEXT ·expShift4AVX2(SB), NOSPLIT, $0-40
	MOVQ    z+0(FP), DI
	MOVQ    c+8(FP), R8
	MOVQ    R8, CX
	SHLQ    $3, CX
	LEAQ    (CX)(CX*2), DX
	MOVQ    shift+16(FP), SI
	VMOVUPD (SI), Y14
	XORQ    AX, AX
	CMPB    fused+24(FP), $0
	JNE     shiftfused
	PCALIGN $32

shiftplain:
	SHIFTSTEP(EXPPLAIN)
	ADDQ $8, DI
	INCQ AX
	CMPQ AX, R8
	JLT  shiftplain
	JMP  done
	PCALIGN $32

shiftfused:
	SHIFTSTEP(EXPFUSED)
	ADDQ $8, DI
	INCQ AX
	CMPQ AX, R8
	JLT  shiftfused

done:
	MOVQ AX, done+32(FP)
	VZEROUPPER
	RET
