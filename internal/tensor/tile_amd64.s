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

// BIAS4 adds class k+j's bias, at boff(R14), to its accumulator — one
// rounded add after the last product — adds the logits to Y14 and stores
// the four lanes, rows 0–3 of the class, at dst.
#define BIAS4(acc, boff, dst) \
	VBROADCASTSD boff(R14), Y4; \
	VADDPD       Y4, acc, acc; \
	VADDPD       acc, Y14, Y14; \
	VMOVUPD      acc, dst

// func dot4xNAVX2(z, x, w, b *float64, n, c, s int) (nan bool)
//
// Registers: DI the pass's first logit z[k·s], DX its first class row w_k,
// R14 its bias b_k, BX and SI the walk along w_k and along row 0 of x, AX
// the columns left, R8 the classes left, R9–R11 the byte offsets of classes
// k+1…k+3 from w_k, R12 a row of x or w in bytes (n·8), R13 three of them,
// CX a class of z (s·8), Y14 the sum of every stored logit, NaN once any
// lane is.
TEXT ·dot4xNAVX2(SB), NOSPLIT, $0-57
	VXORPD Y14, Y14, Y14
	MOVQ   z+0(FP), DI
	MOVQ   w+16(FP), DX
	MOVQ   b+24(FP), R14
	MOVQ   n+32(FP), R12
	SHLQ   $3, R12
	LEAQ   (R12)(R12*2), R13
	MOVQ   c+40(FP), R8
	MOVQ   s+48(FP), CX
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
	MOVQ   n+32(FP), AX
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
	// Each class's four rows are one store, class k+j at DI + j·CX.
	LEAQ  (CX)(CX*2), AX
	BIAS4(Y0, 0, (DI))
	CMPQ  R8, $2
	JLT   next
	BIAS4(Y1, 8, (DI)(CX*1))
	CMPQ  R8, $3
	JLT   next
	BIAS4(Y2, 16, (DI)(CX*2))
	CMPQ  R8, $4
	JLT   next
	BIAS4(Y3, 24, (DI)(AX*1))

next:
	LEAQ (DI)(CX*4), DI
	ADDQ $32, R14
	LEAQ (DX)(R12*4), DX
	SUBQ $4, R8
	JGT  pass

	// An Inf−Inf in the sum reports a NaN that is not there; the caller's
	// look at z costs only time.
	VCMPPD    $3, Y14, Y14, Y14
	VMOVMSKPD Y14, AX
	TESTL     AX, AX
	SETNE     nan+56(FP)
	VZEROUPPER
	RET

// The constants of LogSumExp4's and ExpShift4's exp and log, each splatted
// across the four lanes of a ymm memory operand: Exp's and Log's own
// literals (transcendental.go), so that the assembler rounds them to the
// same bits, and the bit masks their sequences use.
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
SPLAT(416, $-1022.5)                                           // the fast path's bounds on x·LOG2E
SPLAT(448, $1023.5)
SPLAT(480, $0x000003FF000003FF)                                // exponent bias, as int32s
SPLAT(512, $7.07106781186547524401e-01)                        // HSqrt2
SPLAT(544, $6.93147180369123816490e-01)                        // Ln2Hi
SPLAT(576, $1.90821492927058770002e-10)                        // Ln2Lo
SPLAT(608, $6.666666666666735130e-01)                          // L1
SPLAT(640, $3.999999999940941908e-01)                          // L2
SPLAT(672, $2.857142874366239149e-01)                          // L3
SPLAT(704, $2.222219843214978396e-01)                          // L4
SPLAT(736, $1.818357216161805012e-01)                          // L5
SPLAT(768, $1.531383769920937332e-01)                          // L6
SPLAT(800, $1.479819860511658591e-01)                          // L7
SPLAT(832, $0x000FFFFFFFFFFFFF)                                // mantissa
SPLAT(864, $0x4330000000000000)                                // 2⁵²
SPLAT(896, $0x43300000000003FE)                                // 2⁵² + 1022
SPLAT(928, $0x0010000000000000)                                // smallest normal
SPLAT(960, $0x7FF0000000000000)                                // +Inf
GLOBL expk<>(SB), RODATA|NOPTR, $992

// EXPHEAD starts Exp on the four lanes of Y0: it sets Y2 to the lanes on
// its fast path, Y1 to float64(n) for n = round(x·LOG2E), and Y4 to 2ⁿ. A
// lane is on the fast path when n+0x3FF is in (0, 0x7FF), so that neither
// the overflow nor the denormal branch is taken: when −1022.5 ≤ x·LOG2E <
// 1023.5, n rounding half to even, which no NaN, infinity or x above
// Overflow meets. Y3 is scratch.
#define EXPHEAD \
	VMULPD     expk<>+0(SB), Y0, Y1; \
	VCMPPD     $0x1d, expk<>+416(SB), Y1, Y2; \
	VCMPPD     $0x11, expk<>+448(SB), Y1, Y3; \
	VANDPD     Y3, Y2, Y2; \
	VCVTPD2DQY Y1, X4; \
	VCVTDQ2PD  X4, Y1; \
	VPADDD     expk<>+480(SB), X4, X4; \
	VPMOVSXDQ  X4, Y4; \
	VPSLLQ     $52, Y4, Y4

// EXP finishes Exp(Y0) into Y0 with Exp's sequence: fused exactly where it
// calls math.FMA — the two reduction steps, the seven Horner steps and the
// last squaring's +1 — and every other product rounded before its add.
#define EXP \
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

// func logSumExp4AVX2(lse *[4]float64, z *float64, c, s int) (retake int)
//
// Registers: SI the block z (c classes of four rows, a class every s
// values), DI the walk along its classes, CX a class in bytes, AX the
// classes left, Y14 the row maxima, Y13 the sums, Y15 the lanes whose every
// exp, and whose sum, stayed on the fast path.
TEXT ·logSumExp4AVX2(SB), NOSPLIT, $0-40
	MOVQ z+8(FP), SI
	MOVQ s+24(FP), CX
	SHLQ $3, CX

	// Each row's maximum in class order: VMAXPD's first source wins only
	// when it is greater, as `if v > m { m = v }` does, NaN included.
	VMOVUPD (SI), Y14
	LEAQ    (SI)(CX*1), DI
	MOVQ    c+16(FP), AX
	DECQ    AX
	JEQ     sum
	PCALIGN $32

max:
	VMOVUPD (DI), Y0
	VMAXPD  Y14, Y0, Y14
	ADDQ    CX, DI
	DECQ    AX
	JNE     max

sum:
	VXORPD   Y13, Y13, Y13
	VPCMPEQQ Y15, Y15, Y15
	MOVQ     SI, DI
	MOVQ     c+16(FP), AX
	PCALIGN  $32

sumstep:
	VMOVUPD (DI), Y0
	VSUBPD  Y14, Y0, Y0
	EXP
	VANDPD  Y2, Y15, Y15
	VADDPD  Y0, Y13, Y13
	ADDQ    CX, DI
	DECQ    AX
	JNE     sumstep

	// A sum that is not a positive normal number leaves Log's main path;
	// the lane is retaken.
	VCMPPD $0x1d, expk<>+928(SB), Y13, Y2
	VCMPPD $0x11, expk<>+960(SB), Y13, Y3
	VANDPD Y3, Y2, Y2
	VANDPD Y2, Y15, Y15

	// Log(s), its operations in its order: f1 and k from the bits, the √2/2
	// adjustment, then the two polynomials.
	VANDPD  expk<>+832(SB), Y13, Y2
	VORPD   expk<>+320(SB), Y2, Y2
	VPSRLQ  $52, Y13, Y1
	VPOR    expk<>+864(SB), Y1, Y1
	VSUBPD  expk<>+896(SB), Y1, Y1
	VCMPPD  $0x12, expk<>+512(SB), Y2, Y0
	VANDPD  expk<>+352(SB), Y0, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  expk<>+352(SB), Y3, Y3
	VMULPD  Y3, Y2, Y2
	VSUBPD  expk<>+352(SB), Y2, Y2
	VADDPD  expk<>+384(SB), Y2, Y0
	VDIVPD  Y0, Y2, Y3
	VMULPD  Y3, Y3, Y4
	VMULPD  Y4, Y4, Y5
	VMULPD  expk<>+800(SB), Y5, Y6
	VADDPD  expk<>+736(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  expk<>+672(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  expk<>+608(SB), Y6, Y6
	VMULPD  Y6, Y4, Y4
	VMULPD  expk<>+768(SB), Y5, Y6
	VADDPD  expk<>+704(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  expk<>+640(SB), Y6, Y6
	VMULPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  expk<>+320(SB), Y2, Y0
	VMULPD  Y2, Y0, Y0
	VADDPD  Y0, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  expk<>+576(SB), Y1, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y0, Y0
	VSUBPD  Y2, Y0, Y0
	VMULPD  expk<>+544(SB), Y1, Y1
	VSUBPD  Y0, Y1, Y1

	VADDPD    Y1, Y14, Y1
	MOVQ      lse+0(FP), DI
	VMOVUPD   Y1, (DI)
	VMOVMSKPD Y15, AX
	XORQ      $15, AX
	MOVQ      AX, retake+32(FP)
	VZEROUPPER
	RET

// func expShift4AVX2(z *float64, c, s int, shift *[4]float64) (done int)
//
// Registers: DI the walk along the classes of the block z, a class every
// s values, CX a class in bytes, AX the classes done, R8 c, Y14 the shifts.
TEXT ·expShift4AVX2(SB), NOSPLIT, $0-40
	MOVQ    z+0(FP), DI
	MOVQ    c+8(FP), R8
	MOVQ    s+16(FP), CX
	SHLQ    $3, CX
	MOVQ    shift+24(FP), SI
	VMOVUPD (SI), Y14
	XORQ    AX, AX
	PCALIGN $32

shift:
	// A class is replaced by exp(z_k − shift) when all four of its lanes
	// are on exp's fast path; otherwise it and the rest of the block are
	// left as they are.
	VMOVUPD   (DI), Y0
	VSUBPD    Y14, Y0, Y0
	EXP
	VMOVMSKPD Y2, BX
	CMPL      BX, $15
	JNE       done
	VMOVUPD   Y0, (DI)
	ADDQ      CX, DI
	INCQ      AX
	CMPQ      AX, R8
	JLT       shift

done:
	MOVQ AX, done+32(FP)
	VZEROUPPER
	RET

// CLASSES runs op on each class of an eight-row pass, in class order, and
// jumps to done after the last of the R14 classes left (a pass takes at
// most sixteen). op gets the class's accumulator, its column in w — class
// k's row k·n from BX for k < 8 and from R13 for the rest, R9, R10, R11 and
// R12 holding 1, 3, 5 and 7 rows in bytes — and its index in the pass in
// bytes, j·8.
#define CLASSES(op, done) \
	op(Z16, (BX), 0); \
	CMPQ R14, $1; JEQ done; \
	op(Z17, (BX)(R9*1), 8); \
	CMPQ R14, $2; JEQ done; \
	op(Z18, (BX)(R9*2), 16); \
	CMPQ R14, $3; JEQ done; \
	op(Z19, (BX)(R10*1), 24); \
	CMPQ R14, $4; JEQ done; \
	op(Z20, (BX)(R9*4), 32); \
	CMPQ R14, $5; JEQ done; \
	op(Z21, (BX)(R11*1), 40); \
	CMPQ R14, $6; JEQ done; \
	op(Z22, (BX)(R10*2), 48); \
	CMPQ R14, $7; JEQ done; \
	op(Z23, (BX)(R12*1), 56); \
	CMPQ R14, $8; JEQ done; \
	op(Z24, (R13), 64); \
	CMPQ R14, $9; JEQ done; \
	op(Z25, (R13)(R9*1), 72); \
	CMPQ R14, $10; JEQ done; \
	op(Z26, (R13)(R9*2), 80); \
	CMPQ R14, $11; JEQ done; \
	op(Z27, (R13)(R10*1), 88); \
	CMPQ R14, $12; JEQ done; \
	op(Z28, (R13)(R9*4), 96); \
	CMPQ R14, $13; JEQ done; \
	op(Z29, (R13)(R11*1), 104); \
	CMPQ R14, $14; JEQ done; \
	op(Z30, (R13)(R10*2), 112); \
	CMPQ R14, $15; JEQ done; \
	op(Z31, (R13)(R12*1), 120)

// MUL4 adds the four columns in Z0–Z3 times w_k[i…i+3], each broadcast to
// the eight lanes, to the class's accumulator in column order. Each product
// is rounded before its add: no fused multiply-add.
#define MUL4(acc, w, j8) \
	VMULPD.BCST 0 w, Z0, Z12; \
	VADDPD      Z12, acc, acc; \
	VMULPD.BCST 8 w, Z1, Z13; \
	VADDPD      Z13, acc, acc; \
	VMULPD.BCST 16 w, Z2, Z12; \
	VADDPD      Z12, acc, acc; \
	VMULPD.BCST 24 w, Z3, Z13; \
	VADDPD      Z13, acc, acc

// MUL1 adds the column in Z0 times w_k[i] to the class's accumulator.
#define MUL1(acc, w, j8) \
	VMULPD.BCST w, Z0, Z12; \
	VADDPD      Z12, acc, acc

// STORE8 adds the class's bias, b_k at j8(CX), to its accumulator — one
// rounded add after the last product — adds the logits to Z15, NaN once
// any lane is, and stores the eight lanes, rows 0–7 of the class, as one:
// class k+j at DI + j·64.
#define STORE8(acc, w, j8) \
	VADDPD.BCST j8(CX), acc, acc; \
	VADDPD      acc, Z15, Z15; \
	VMOVUPD     acc, j8*8(DI)

// func dot8xNAVX512(z, x, w, b *float64, n, c int) (nan bool)
//
// Registers: DI the pass's first logit z[8k], DX its first class row w_k, CX
// its bias b_k, BX and R13 the walk along classes k…k+7 and k+8…k+15, SI
// and R8 the walk along rows 0 and 4 of x, AX the columns left, R14 the
// classes left, R9–R12 one, three, five and seven rows of x or w in bytes
// (n·8), Z16–Z31 the pass's accumulators, one class each with the eight rows
// as lanes, Z15 the sum of every stored logit.
TEXT ·dot8xNAVX512(SB), NOSPLIT, $0-49
	VPXORQ Z15, Z15, Z15
	MOVQ   z+0(FP), DI
	MOVQ   w+16(FP), DX
	MOVQ   b+24(FP), CX
	MOVQ   n+32(FP), R9
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R10
	LEAQ   (R9)(R9*4), R11
	LEAQ   (R10)(R9*4), R12
	MOVQ   c+40(FP), R14

pass:
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	MOVQ   x+8(FP), SI
	LEAQ   (SI)(R9*4), R8
	MOVQ   DX, BX
	LEAQ   (DX)(R9*8), R13
	MOVQ   n+32(FP), AX
	CMPQ   AX, $4
	JLT    tail
	PCALIGN $64

quad:
	// Four columns of the eight rows, transposed into Z0–Z3: rows 0|2,
	// 1|3, 4|6 and 5|7 paired in Z4–Z7, unpacked into row pairs per column
	// pair, then each column's four row pairs gathered in row order.
	VMOVUPD      (SI), Y4
	VINSERTF64X4 $1, (SI)(R9*2), Z4, Z4
	VMOVUPD      (SI)(R9*1), Y5
	VINSERTF64X4 $1, (SI)(R10*1), Z5, Z5
	VMOVUPD      (R8), Y6
	VINSERTF64X4 $1, (R8)(R9*2), Z6, Z6
	VMOVUPD      (R8)(R9*1), Y7
	VINSERTF64X4 $1, (R8)(R10*1), Z7, Z7
	VUNPCKLPD    Z5, Z4, Z8
	VUNPCKHPD    Z5, Z4, Z9
	VUNPCKLPD    Z7, Z6, Z10
	VUNPCKHPD    Z7, Z6, Z11
	VSHUFF64X2   $0x88, Z10, Z8, Z0
	VSHUFF64X2   $0x88, Z11, Z9, Z1
	VSHUFF64X2   $0xdd, Z10, Z8, Z2
	VSHUFF64X2   $0xdd, Z11, Z9, Z3
	CLASSES(MUL4, quaddone)

quaddone:
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, BX
	ADDQ $32, R13
	SUBQ $4, AX
	CMPQ AX, $4
	JGE  quad

tail:
	TESTQ AX, AX
	JEQ   store

one:
	VMOVSD       (SI), X4
	VMOVHPD      (SI)(R9*1), X4, X4
	VMOVSD       (SI)(R9*2), X5
	VMOVHPD      (SI)(R10*1), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VMOVSD       (R8), X6
	VMOVHPD      (R8)(R9*1), X6, X6
	VMOVSD       (R8)(R9*2), X7
	VMOVHPD      (R8)(R10*1), X7, X7
	VINSERTF128  $1, X7, Y6, Y6
	VINSERTF64X4 $1, Y6, Z4, Z0
	CLASSES(MUL1, onedone)

onedone:
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, BX
	ADDQ $8, R13
	DECQ AX
	JNE  one

store:
	CLASSES(STORE8, next)

next:
	ADDQ $1024, DI
	ADDQ $128, CX
	LEAQ (DX)(R9*8), DX
	LEAQ (DX)(R9*8), DX
	SUBQ $16, R14
	JGT  pass

	// An Inf−Inf in the sum reports a NaN that is not there; the caller's
	// look at z costs only time.
	VCMPPD   $3, Z15, Z15, K1
	KORTESTW K1, K1
	SETNE    nan+48(FP)
	VZEROUPPER
	RET

// EXPHEAD8 is EXPHEAD on the eight lanes of Z0: it sets K2 to the lanes on
// Exp's fast path, Z1 to float64(n) and Z4 to 2ⁿ, with the same
// operations, the integer ones on n's eight int32s in Y4.
#define EXPHEAD8 \
	VMULPD.BCST  expk<>+0(SB), Z0, Z1; \
	VCMPPD.BCST  $0x1d, expk<>+416(SB), Z1, K2; \
	VCMPPD.BCST  $0x11, expk<>+448(SB), Z1, K2, K2; \
	VCVTPD2DQ    Z1, Y4; \
	VCVTDQ2PD    Y4, Z1; \
	VPADDD       expk<>+480(SB), Y4, Y4; \
	VPMOVSXDQ    Y4, Z4; \
	VPSLLQ       $52, Z4, Z4

// EXP8 is EXP on the eight lanes of Z0.
#define EXP8 \
	EXPHEAD8; \
	VFNMADD231PD.BCST expk<>+32(SB), Z1, Z0; \
	VFNMADD231PD.BCST expk<>+64(SB), Z1, Z0; \
	VMULPD.BCST       expk<>+96(SB), Z0, Z0; \
	VBROADCASTSD      expk<>+128(SB), Z1; \
	VFMADD213PD.BCST  expk<>+160(SB), Z0, Z1; \
	VFMADD213PD.BCST  expk<>+192(SB), Z0, Z1; \
	VFMADD213PD.BCST  expk<>+224(SB), Z0, Z1; \
	VFMADD213PD.BCST  expk<>+256(SB), Z0, Z1; \
	VFMADD213PD.BCST  expk<>+288(SB), Z0, Z1; \
	VFMADD213PD.BCST  expk<>+320(SB), Z0, Z1; \
	VFMADD213PD.BCST  expk<>+352(SB), Z0, Z1; \
	VMULPD            Z1, Z0, Z0; \
	VADDPD.BCST       expk<>+384(SB), Z0, Z1; \
	VMULPD            Z1, Z0, Z0; \
	VADDPD.BCST       expk<>+384(SB), Z0, Z1; \
	VMULPD            Z1, Z0, Z0; \
	VADDPD.BCST       expk<>+384(SB), Z0, Z1; \
	VMULPD            Z1, Z0, Z0; \
	VADDPD.BCST       expk<>+384(SB), Z0, Z1; \
	VFMADD213PD.BCST  expk<>+352(SB), Z1, Z0; \
	VMULPD            Z4, Z0, Z0

// func logSumExp8AVX512(lse *[8]float64, z *float64, c int) (retake int)
//
// Registers: SI the block z (c classes of eight rows), DI the walk along
// its classes, AX the classes left, Z14 the row maxima, Z13 the sums, K7
// the lanes whose every exp, and whose sum, stayed on the fast path.
TEXT ·logSumExp8AVX512(SB), NOSPLIT, $0-32
	MOVQ z+8(FP), SI

	// Each row's maximum in class order, as in logSumExp4AVX2.
	VMOVUPD (SI), Z14
	LEAQ    64(SI), DI
	MOVQ    c+16(FP), AX
	DECQ    AX
	JEQ     sum
	PCALIGN $32

max:
	VMOVUPD (DI), Z0
	VMAXPD  Z14, Z0, Z14
	ADDQ    $64, DI
	DECQ    AX
	JNE     max

sum:
	VPXORQ  Z13, Z13, Z13
	KXNORW  K7, K7, K7
	MOVQ    SI, DI
	MOVQ    c+16(FP), AX
	PCALIGN $32

sumstep:
	VMOVUPD (DI), Z0
	VSUBPD  Z14, Z0, Z0
	EXP8
	KANDW   K2, K7, K7
	VADDPD  Z0, Z13, Z13
	ADDQ    $64, DI
	DECQ    AX
	JNE     sumstep

	// A sum that is not a positive normal number is retaken, as in
	// logSumExp4AVX2; then Log(s) on the eight lanes, the same
	// operations in the same order.
	VCMPPD.BCST  $0x1d, expk<>+928(SB), Z13, K7, K7
	VCMPPD.BCST  $0x11, expk<>+960(SB), Z13, K7, K7
	VPANDQ.BCST  expk<>+832(SB), Z13, Z2
	VPORQ.BCST   expk<>+320(SB), Z2, Z2
	VPSRLQ       $52, Z13, Z1
	VPORQ.BCST   expk<>+864(SB), Z1, Z1
	VSUBPD.BCST  expk<>+896(SB), Z1, Z1
	VCMPPD.BCST  $0x12, expk<>+512(SB), Z2, K3
	VPXORQ       Z3, Z3, Z3
	VBROADCASTSD expk<>+352(SB), K3, Z3
	VSUBPD       Z3, Z1, Z1
	VADDPD.BCST  expk<>+352(SB), Z3, Z3
	VMULPD       Z3, Z2, Z2
	VSUBPD.BCST  expk<>+352(SB), Z2, Z2
	VADDPD.BCST  expk<>+384(SB), Z2, Z0
	VDIVPD       Z0, Z2, Z3
	VMULPD       Z3, Z3, Z4
	VMULPD       Z4, Z4, Z5
	VMULPD.BCST  expk<>+800(SB), Z5, Z6
	VADDPD.BCST  expk<>+736(SB), Z6, Z6
	VMULPD       Z5, Z6, Z6
	VADDPD.BCST  expk<>+672(SB), Z6, Z6
	VMULPD       Z5, Z6, Z6
	VADDPD.BCST  expk<>+608(SB), Z6, Z6
	VMULPD       Z6, Z4, Z4
	VMULPD.BCST  expk<>+768(SB), Z5, Z6
	VADDPD.BCST  expk<>+704(SB), Z6, Z6
	VMULPD       Z5, Z6, Z6
	VADDPD.BCST  expk<>+640(SB), Z6, Z6
	VMULPD       Z6, Z5, Z5
	VADDPD       Z5, Z4, Z4
	VMULPD.BCST  expk<>+320(SB), Z2, Z0
	VMULPD       Z2, Z0, Z0
	VADDPD       Z0, Z4, Z4
	VMULPD       Z4, Z3, Z3
	VMULPD.BCST  expk<>+576(SB), Z1, Z4
	VADDPD       Z4, Z3, Z3
	VSUBPD       Z3, Z0, Z0
	VSUBPD       Z2, Z0, Z0
	VMULPD.BCST  expk<>+544(SB), Z1, Z1
	VSUBPD       Z0, Z1, Z1

	VADDPD  Z1, Z14, Z1
	MOVQ    lse+0(FP), DI
	VMOVUPD Z1, (DI)
	KMOVW   K7, AX
	NOTQ    AX
	ANDQ    $0xff, AX
	MOVQ    AX, retake+24(FP)
	VZEROUPPER
	RET

// func expShift8AVX512(z *float64, c int, shift *[8]float64) (done int)
//
// expShift4AVX2 over eight lanes. Registers: DI the walk along the classes
// of the block z, AX the classes done, R8 c, Z14 the shifts.
TEXT ·expShift8AVX512(SB), NOSPLIT, $0-32
	MOVQ    z+0(FP), DI
	MOVQ    c+8(FP), R8
	MOVQ    shift+16(FP), SI
	VMOVUPD (SI), Z14
	XORQ    AX, AX
	PCALIGN $64

shift:
	VMOVUPD (DI), Z0
	VSUBPD  Z14, Z0, Z0
	EXP8
	KMOVW   K2, BX
	CMPL    BX, $0xff
	JNE     done
	VMOVUPD Z0, (DI)
	ADDQ    $64, DI
	INCQ    AX
	CMPQ    AX, R8
	JLT     shift

done:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET
