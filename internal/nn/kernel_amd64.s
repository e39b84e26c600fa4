#include "textflag.h"

// The AVX2 kernels behind the forward pass (Dense.affine and the row lists of
// Dense.activate, which clamp the ReLU as they go), Dense.propagate, the
// weight-gradient sums of Dense.accumulate and Adam's step (kernel.go says
// when they run; DESIGN.md §10 has the contract). Each YMM lane carries one
// output of the Go loop and runs that loop's IEEE sequence: a VMULPD, then a
// VADDPD, never an FMA (which rounds once where the Go loop rounds twice),
// every sum in its Go order. Every add into a sum takes the sum as its first
// source operand, whose NaN x86 returns when both operands are NaN. Partial
// blocks go through masks from laneMask, so no kernel reads or writes
// outside its slices.

// laneMask is sixteen all-ones quadwords, then sixteen zero ones. Four YMM
// loads from element 16-r enable the first r lanes of a 16-lane block.
DATA laneMask<>+0x00(SB)/8, $-1
DATA laneMask<>+0x08(SB)/8, $-1
DATA laneMask<>+0x10(SB)/8, $-1
DATA laneMask<>+0x18(SB)/8, $-1
DATA laneMask<>+0x20(SB)/8, $-1
DATA laneMask<>+0x28(SB)/8, $-1
DATA laneMask<>+0x30(SB)/8, $-1
DATA laneMask<>+0x38(SB)/8, $-1
DATA laneMask<>+0x40(SB)/8, $-1
DATA laneMask<>+0x48(SB)/8, $-1
DATA laneMask<>+0x50(SB)/8, $-1
DATA laneMask<>+0x58(SB)/8, $-1
DATA laneMask<>+0x60(SB)/8, $-1
DATA laneMask<>+0x68(SB)/8, $-1
DATA laneMask<>+0x70(SB)/8, $-1
DATA laneMask<>+0x78(SB)/8, $-1
DATA laneMask<>+0x80(SB)/8, $0
DATA laneMask<>+0x88(SB)/8, $0
DATA laneMask<>+0x90(SB)/8, $0
DATA laneMask<>+0x98(SB)/8, $0
DATA laneMask<>+0xa0(SB)/8, $0
DATA laneMask<>+0xa8(SB)/8, $0
DATA laneMask<>+0xb0(SB)/8, $0
DATA laneMask<>+0xb8(SB)/8, $0
DATA laneMask<>+0xc0(SB)/8, $0
DATA laneMask<>+0xc8(SB)/8, $0
DATA laneMask<>+0xd0(SB)/8, $0
DATA laneMask<>+0xd8(SB)/8, $0
DATA laneMask<>+0xe0(SB)/8, $0
DATA laneMask<>+0xe8(SB)/8, $0
DATA laneMask<>+0xf0(SB)/8, $0
DATA laneMask<>+0xf8(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $256

// LOADMASKS(n) sets Y12–Y15 to the masks of the first n (0–16) lanes of a
// 16-lane block, from element 16-n of laneMask. It clobbers AX and leaves n
// as it found it.
#define LOADMASKS(n) \
	LEAQ    laneMask<>+128(SB), AX; \
	NEGQ    n;                      \
	LEAQ    (AX)(n*8), AX;          \
	NEGQ    n;                      \
	VMOVUPD 0(AX), Y12;             \
	VMOVUPD 32(AX), Y13;            \
	VMOVUPD 64(AX), Y14;            \
	VMOVUPD 96(AX), Y15

// AFFINE adds x·w, x broadcast in xr, to the sum acc of the four outputs at
// off(R10) in the current row of wt, through the product register tmp.
#define AFFINE(off, xr, tmp, acc) \
	VMULPD off(R10), xr, tmp; \
	VADDPD tmp, acc, acc

// NEXTROW takes the next entry i of the row list at R11: x[i] broadcast into
// xr, and R10 at row i of wt in the current block of outputs.
#define NEXTROW(xr) \
	MOVQ         (R11), R10;      \
	VBROADCASTSD (DI)(R10*8), xr; \
	IMULQ        R9, R10;         \
	ADDQ         SI, R10

// func affineT(wt, b, x, z []float64, rows []int)
//
// z[o] = b[o] + wt[i₀·s+o]·x[i₀] + wt[i₁·s+o]·x[i₁] + … for every o, over the
// inputs i₀ < i₁ < … that rows lists, where the row stride s is len(z)
// rounded up to 16. Each output is one chain of adds, so outputs go 48 at a
// time in twelve accumulators of four lanes while 48 are left, then 32 at a
// time in eight, the second 16 through masks where fewer are left, then 16
// at a time in four: the more chains in flight, the less the adds wait on
// each other. A masked block loads b and stores z
// through masks and reads the zero padding of wt in its dead lanes. An input
// left off rows costs nothing: no broadcast, no loads of its row of wt.
TEXT ·affineT(SB), NOSPLIT, $0-120
	MOVQ wt_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ x_base+48(FP), DI
	MOVQ z_base+72(FP), DX
	MOVQ z_len+80(FP), R8
	MOVQ rows_base+96(FP), R14
	MOVQ rows_len+104(FP), CX
	LEAQ 15(R8), R9
	ANDQ $-16, R9
	SHLQ $3, R9              // bytes per row of wt

ftriple:
	CMPQ    R8, $48
	JLT     fdouble
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	VMOVUPD 256(BX), Y8
	VMOVUPD 288(BX), Y9
	VMOVUPD 320(BX), Y10
	VMOVUPD 352(BX), Y11
	MOVQ    R14, R11
	MOVQ    CX, R12
	TESTQ   R12, R12
	JEQ     ftstore

ftloop:
	NEXTROW(Y12)
	AFFINE(0, Y12, Y13, Y0)
	AFFINE(32, Y12, Y14, Y1)
	AFFINE(64, Y12, Y15, Y2)
	AFFINE(96, Y12, Y13, Y3)
	AFFINE(128, Y12, Y14, Y4)
	AFFINE(160, Y12, Y15, Y5)
	AFFINE(192, Y12, Y13, Y6)
	AFFINE(224, Y12, Y14, Y7)
	AFFINE(256, Y12, Y15, Y8)
	AFFINE(288, Y12, Y13, Y9)
	AFFINE(320, Y12, Y14, Y10)
	AFFINE(352, Y12, Y15, Y11)
	ADDQ         $8, R11
	DECQ         R12
	JNE          ftloop

ftstore:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VMOVUPD Y8, 256(DX)
	VMOVUPD Y9, 288(DX)
	VMOVUPD Y10, 320(DX)
	VMOVUPD Y11, 352(DX)
	ADDQ    $384, SI
	ADDQ    $384, BX
	ADDQ    $384, DX
	SUBQ    $48, R8
	JNE     ftriple
	VZEROUPPER
	RET

fdouble:
	CMPQ R8, $17
	JLT  fblock
	MOVQ R8, R13
	SUBQ $16, R13
	CMPQ R13, $16
	JLE  fdmask
	MOVQ $16, R13

fdmask:
	LOADMASKS(R13)
	VMOVUPD    0(BX), Y0
	VMOVUPD    32(BX), Y1
	VMOVUPD    64(BX), Y2
	VMOVUPD    96(BX), Y3
	VMASKMOVPD 128(BX), Y12, Y4
	VMASKMOVPD 160(BX), Y13, Y5
	VMASKMOVPD 192(BX), Y14, Y6
	VMASKMOVPD 224(BX), Y15, Y7
	MOVQ       R14, R11
	MOVQ       CX, R12
	TESTQ      R12, R12
	JEQ        fdstore

fdloop:
	NEXTROW(Y8)
	AFFINE(0, Y8, Y9, Y0)
	AFFINE(32, Y8, Y10, Y1)
	AFFINE(64, Y8, Y11, Y2)
	AFFINE(96, Y8, Y9, Y3)
	AFFINE(128, Y8, Y10, Y4)
	AFFINE(160, Y8, Y11, Y5)
	AFFINE(192, Y8, Y9, Y6)
	AFFINE(224, Y8, Y10, Y7)
	ADDQ         $8, R11
	DECQ         R12
	JNE          fdloop

fdstore:
	VMOVUPD    Y0, 0(DX)
	VMOVUPD    Y1, 32(DX)
	VMOVUPD    Y2, 64(DX)
	VMOVUPD    Y3, 96(DX)
	VMASKMOVPD Y4, Y12, 128(DX)
	VMASKMOVPD Y5, Y13, 160(DX)
	VMASKMOVPD Y6, Y14, 192(DX)
	VMASKMOVPD Y7, Y15, 224(DX)
	SUBQ       $32, R8
	JLE        fdone
	ADDQ       $256, SI
	ADDQ       $256, BX
	ADDQ       $256, DX
	JMP        ftriple

fdone:
	VZEROUPPER
	RET

fblock:
	CMPQ R8, $16
	JLT  fpartial
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	JMP  fcols

fpartial:
	LOADMASKS(R8)
	VMASKMOVPD 0(BX), Y12, Y0
	VMASKMOVPD 32(BX), Y13, Y1
	VMASKMOVPD 64(BX), Y14, Y2
	VMASKMOVPD 96(BX), Y15, Y3

fcols:
	MOVQ  R14, R11
	MOVQ  CX, R12
	TESTQ R12, R12
	JEQ   fstore

floop:
	NEXTROW(Y4)
	VMULPD       0(R10), Y4, Y5
	VMULPD       32(R10), Y4, Y6
	VMULPD       64(R10), Y4, Y7
	VMULPD       96(R10), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R11
	DECQ         R12
	JNE          floop

fstore:
	CMPQ R8, $16
	JLT  fstorepartial
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, SI
	ADDQ $128, BX
	ADDQ $128, DX
	SUBQ $16, R8
	JNE  fblock
	VZEROUPPER
	RET

fstorepartial:
	VMASKMOVPD Y0, Y12, 0(DX)
	VMASKMOVPD Y1, Y13, 32(DX)
	VMASKMOVPD Y2, Y14, 64(DX)
	VMASKMOVPD Y3, Y15, 96(DX)
	VZEROUPPER
	RET

// Input-gradient row steps. Y8 holds the row's output gradient δ in every
// lane, Y0–Y3 the block's input-gradient sums; AX is the byte offset of the
// block in the row and R8 the base of w.

// DIN adds δ·w to four input-gradient sums: acc + (δ·w).
#define DIN(off, acc) \
	VMULPD off(R8)(AX*1), Y8, Y11; \
	VADDPD Y11, acc, acc

// DINM is DIN through a mask from Y12–Y15.
#define DINM(off, acc, mask) \
	VMASKMOVPD off(R8)(AX*1), mask, Y11; \
	VMULPD     Y11, Y8, Y11;             \
	VADDPD     Y11, acc, acc

// ROWSTEP loads the next live row's δ into Y8 and its block offset into AX,
// or jumps to done when the rows have run out.
#define ROWSTEP(done) \
	CMPQ         R14, R10;       \
	JGE          done;           \
	MOVQ         (SI)(R14*8), AX; \
	VBROADCASTSD (DX)(AX*8), Y8;  \
	IMULQ        R11, AX;        \
	ADDQ         R12, AX;        \
	INCQ         R14

// DIN3 is DIN with δ in Y12 and the product in Y13, for the 48-input pass.
#define DIN3(off, acc) \
	VMULPD off(R8)(AX*1), Y12, Y13; \
	VADDPD Y13, acc, acc

// ROWSTEP3 is ROWSTEP with δ into Y12.
#define ROWSTEP3(done) \
	CMPQ         R14, R10;       \
	JGE          done;           \
	MOVQ         (SI)(R14*8), AX; \
	VBROADCASTSD (DX)(AX*8), Y12; \
	IMULQ        R11, AX;        \
	ADDQ         R12, AX;        \
	INCQ         R14

// func inputGradAVX2(w, delta, dIn []float64, rows []int)
//
// dIn[i] = Σ_o delta[o]·w[o][i] from +0 over the rows in rows, ascending, at
// every input i. The sums of a block of inputs stay in registers while the
// rows stream past: 48 inputs in twelve registers of four lanes while 48
// are left, then 32 in eight, the second 16 through masks where fewer are
// left, then 16 in four, the last of them through masks. Each sum is one
// chain of adds, so the wider the block, the less the adds wait on each
// other.
TEXT ·inputGradAVX2(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), R8
	MOVQ delta_base+24(FP), DX
	MOVQ dIn_base+48(FP), DI
	MOVQ dIn_len+56(FP), R13 // inputs left
	MOVQ rows_base+72(FP), SI
	MOVQ rows_len+80(FP), R10
	MOVQ R13, R11
	SHLQ $3, R11             // bytes per row of w
	XORQ R12, R12            // byte offset of the block

itriple:
	CMPQ   R13, $48
	JLT    idouble
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ   R14, R14

itrow:
	ROWSTEP3(itstore)
	DIN3(0, Y0)
	DIN3(32, Y1)
	DIN3(64, Y2)
	DIN3(96, Y3)
	DIN3(128, Y4)
	DIN3(160, Y5)
	DIN3(192, Y6)
	DIN3(224, Y7)
	DIN3(256, Y8)
	DIN3(288, Y9)
	DIN3(320, Y10)
	DIN3(352, Y11)
	JMP itrow

itstore:
	VMOVUPD Y0, 0(DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	VMOVUPD Y2, 64(DI)(R12*1)
	VMOVUPD Y3, 96(DI)(R12*1)
	VMOVUPD Y4, 128(DI)(R12*1)
	VMOVUPD Y5, 160(DI)(R12*1)
	VMOVUPD Y6, 192(DI)(R12*1)
	VMOVUPD Y7, 224(DI)(R12*1)
	VMOVUPD Y8, 256(DI)(R12*1)
	VMOVUPD Y9, 288(DI)(R12*1)
	VMOVUPD Y10, 320(DI)(R12*1)
	VMOVUPD Y11, 352(DI)(R12*1)
	ADDQ    $384, R12
	SUBQ    $48, R13
	JNE     itriple
	VZEROUPPER
	RET

idouble:
	CMPQ R13, $17
	JLT  iblock
	MOVQ R13, R9
	SUBQ $16, R9
	CMPQ R9, $16
	JLE  idmask
	MOVQ $16, R9

idmask:
	LOADMASKS(R9)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   R14, R14

idrow:
	ROWSTEP(idstore)
	DIN(0, Y0)
	DIN(32, Y1)
	DIN(64, Y2)
	DIN(96, Y3)
	DINM(128, Y4, Y12)
	DINM(160, Y5, Y13)
	DINM(192, Y6, Y14)
	DINM(224, Y7, Y15)
	JMP idrow

idstore:
	VMOVUPD    Y0, 0(DI)(R12*1)
	VMOVUPD    Y1, 32(DI)(R12*1)
	VMOVUPD    Y2, 64(DI)(R12*1)
	VMOVUPD    Y3, 96(DI)(R12*1)
	VMASKMOVPD Y4, Y12, 128(DI)(R12*1)
	VMASKMOVPD Y5, Y13, 160(DI)(R12*1)
	VMASKMOVPD Y6, Y14, 192(DI)(R12*1)
	VMASKMOVPD Y7, Y15, 224(DI)(R12*1)
	SUBQ       $32, R13
	JLE        idone
	ADDQ       $256, R12
	JMP        itriple

idone:
	VZEROUPPER
	RET

iblock:
	CMPQ   R13, $16
	JLT    ipartial
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   R14, R14

irow:
	ROWSTEP(istore)
	DIN(0, Y0)
	DIN(32, Y1)
	DIN(64, Y2)
	DIN(96, Y3)
	JMP irow

istore:
	VMOVUPD Y0, 0(DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	VMOVUPD Y2, 64(DI)(R12*1)
	VMOVUPD Y3, 96(DI)(R12*1)
	ADDQ    $128, R12
	SUBQ    $16, R13
	JNE     iblock
	VZEROUPPER
	RET

ipartial:
	LOADMASKS(R13)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   R14, R14

imrow:
	ROWSTEP(imstore)
	DINM(0, Y0, Y12)
	DINM(32, Y1, Y13)
	DINM(64, Y2, Y14)
	DINM(96, Y3, Y15)
	JMP imrow

imstore:
	VMASKMOVPD Y0, Y12, 0(DI)(R12*1)
	VMASKMOVPD Y1, Y13, 32(DI)(R12*1)
	VMASKMOVPD Y2, Y14, 64(DI)(R12*1)
	VMASKMOVPD Y3, Y15, 96(DI)(R12*1)
	VZEROUPPER
	RET

// GRADSTEP adds one sample to a row's four block sums: Y8 holds the sample's
// δ of the row in every lane and Y4–Y7 its block of x, and each sum takes
// sum + (x·δ).
#define GRADSTEP \
	VMULPD Y8, Y4, Y4; \
	VMULPD Y8, Y5, Y5; \
	VMULPD Y8, Y6, Y6; \
	VMULPD Y8, Y7, Y7; \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y6, Y2, Y2; \
	VADDPD Y7, Y3, Y3

// SCALE4 multiplies the sums in Y0–Y3 by Y8, sum·scale; SCALE8 also those in
// Y4–Y7.
#define SCALE4 \
	VMULPD Y8, Y0, Y0; \
	VMULPD Y8, Y1, Y1; \
	VMULPD Y8, Y2, Y2; \
	VMULPD Y8, Y3, Y3

#define SCALE8 \
	SCALE4;            \
	VMULPD Y8, Y4, Y4; \
	VMULPD Y8, Y5, Y5; \
	VMULPD Y8, Y6, Y6; \
	VMULPD Y8, Y7, Y7

// PAIRSTEP adds one sample's four x at off(R8), loaded into Y10, to a sum of
// each of two rows: a + (x·δ) with the first row's δ in Y8, b + (x·δ) with
// the second's in Y9. PAIRSTEPM loads x through mask.
#define PAIRSTEP(off, a, b) \
	VMOVUPD off(R8), Y10; \
	VMULPD  Y8, Y10, Y11; \
	VMULPD  Y9, Y10, Y10; \
	VADDPD  Y11, a, a;    \
	VADDPD  Y10, b, b

#define PAIRSTEPM(off, a, b, mask) \
	VMASKMOVPD off(R8), mask, Y10; \
	VMULPD     Y8, Y10, Y11;       \
	VMULPD     Y9, Y10, Y10;       \
	VADDPD     Y11, a, a;          \
	VADDPD     Y10, b, b

// func gradAVX2(gw, delta, x []float64, in, out, n int, scale float64)
//
// For every row r of gw, rows of in entries: gw[r][i] = (gw[r][i] + Σ_s
// x[s·in+i]·delta[s·out+r])·scale, the sum over the n samples in order, at
// every input i. Rows go two at a time and inputs 16 at a time: the two rows'
// block sums, eight registers of four lanes, stay in registers while the
// samples stream past, each sample's block of x loaded once for both rows;
// a last odd row goes alone. The last block of a row goes through masks. n is
// at least 1.
TEXT ·gradAVX2(SB), NOSPLIT, $0-104
	MOVQ gw_base+0(FP), DI
	MOVQ gw_len+8(FP), SI
	LEAQ (DI)(SI*8), SI      // the end of gw
	MOVQ delta_base+24(FP), DX
	MOVQ x_base+48(FP), BX
	MOVQ in+72(FP), R9
	SHLQ $3, R9              // bytes per row of gw and per sample of x
	MOVQ out+80(FP), R10
	SHLQ $3, R10             // bytes per sample of delta
	MOVQ n+88(FP), R11

gpair:
	LEAQ (DI)(R9*2), AX
	CMPQ AX, SI
	JGT  grow                // fewer than two rows left
	MOVQ in+72(FP), R13      // inputs left in the rows
	XORQ R12, R12            // byte offset of the block

gpblock:
	LEAQ    (DI)(R9*1), AX   // the second row
	CMPQ    R13, $16
	JLT     gppartial
	VMOVUPD 0(DI)(R12*1), Y0
	VMOVUPD 32(DI)(R12*1), Y1
	VMOVUPD 64(DI)(R12*1), Y2
	VMOVUPD 96(DI)(R12*1), Y3
	VMOVUPD 0(AX)(R12*1), Y4
	VMOVUPD 32(AX)(R12*1), Y5
	VMOVUPD 64(AX)(R12*1), Y6
	VMOVUPD 96(AX)(R12*1), Y7
	LEAQ    (BX)(R12*1), R8  // the block of sample 0's x
	MOVQ    DX, R14          // sample 0's δ of the first row
	MOVQ    R11, CX

gpsample:
	VBROADCASTSD (R14), Y8
	VBROADCASTSD 8(R14), Y9
	PAIRSTEP(0, Y0, Y4)
	PAIRSTEP(32, Y1, Y5)
	PAIRSTEP(64, Y2, Y6)
	PAIRSTEP(96, Y3, Y7)
	ADDQ         R9, R8
	ADDQ         R10, R14
	DECQ         CX
	JNE          gpsample
	VBROADCASTSD scale+96(FP), Y8
	SCALE8
	VMOVUPD      Y0, 0(DI)(R12*1)
	VMOVUPD      Y1, 32(DI)(R12*1)
	VMOVUPD      Y2, 64(DI)(R12*1)
	VMOVUPD      Y3, 96(DI)(R12*1)
	VMOVUPD      Y4, 0(AX)(R12*1)
	VMOVUPD      Y5, 32(AX)(R12*1)
	VMOVUPD      Y6, 64(AX)(R12*1)
	VMOVUPD      Y7, 96(AX)(R12*1)
	ADDQ         $128, R12
	SUBQ         $16, R13
	JNE          gpblock
	JMP          gpnext

gppartial:
	LOADMASKS(R13)
	LEAQ       (DI)(R9*1), AX
	VMASKMOVPD 0(DI)(R12*1), Y12, Y0
	VMASKMOVPD 32(DI)(R12*1), Y13, Y1
	VMASKMOVPD 64(DI)(R12*1), Y14, Y2
	VMASKMOVPD 96(DI)(R12*1), Y15, Y3
	VMASKMOVPD 0(AX)(R12*1), Y12, Y4
	VMASKMOVPD 32(AX)(R12*1), Y13, Y5
	VMASKMOVPD 64(AX)(R12*1), Y14, Y6
	VMASKMOVPD 96(AX)(R12*1), Y15, Y7
	LEAQ       (BX)(R12*1), R8
	MOVQ       DX, R14
	MOVQ       R11, CX

gpmsample:
	VBROADCASTSD (R14), Y8
	VBROADCASTSD 8(R14), Y9
	PAIRSTEPM(0, Y0, Y4, Y12)
	PAIRSTEPM(32, Y1, Y5, Y13)
	PAIRSTEPM(64, Y2, Y6, Y14)
	PAIRSTEPM(96, Y3, Y7, Y15)
	ADDQ         R9, R8
	ADDQ         R10, R14
	DECQ         CX
	JNE          gpmsample
	VBROADCASTSD scale+96(FP), Y8
	SCALE8
	VMASKMOVPD   Y0, Y12, 0(DI)(R12*1)
	VMASKMOVPD   Y1, Y13, 32(DI)(R12*1)
	VMASKMOVPD   Y2, Y14, 64(DI)(R12*1)
	VMASKMOVPD   Y3, Y15, 96(DI)(R12*1)
	VMASKMOVPD   Y4, Y12, 0(AX)(R12*1)
	VMASKMOVPD   Y5, Y13, 32(AX)(R12*1)
	VMASKMOVPD   Y6, Y14, 64(AX)(R12*1)
	VMASKMOVPD   Y7, Y15, 96(AX)(R12*1)

gpnext:
	LEAQ (DI)(R9*2), DI
	ADDQ $16, DX
	JMP  gpair

grow:
	CMPQ DI, SI
	JGE  gdone
	MOVQ in+72(FP), R13      // inputs left in the row
	XORQ R12, R12            // byte offset of the block

gblock:
	CMPQ    R13, $16
	JLT     gpartial
	VMOVUPD 0(DI)(R12*1), Y0
	VMOVUPD 32(DI)(R12*1), Y1
	VMOVUPD 64(DI)(R12*1), Y2
	VMOVUPD 96(DI)(R12*1), Y3
	LEAQ    (BX)(R12*1), R8  // the block of sample 0's x
	MOVQ    DX, R14          // sample 0's δ of the row
	MOVQ    R11, CX

gsample:
	VBROADCASTSD (R14), Y8
	VMOVUPD      0(R8), Y4
	VMOVUPD      32(R8), Y5
	VMOVUPD      64(R8), Y6
	VMOVUPD      96(R8), Y7
	GRADSTEP
	ADDQ         R9, R8
	ADDQ         R10, R14
	DECQ         CX
	JNE          gsample
	VBROADCASTSD scale+96(FP), Y8
	SCALE4
	VMOVUPD      Y0, 0(DI)(R12*1)
	VMOVUPD      Y1, 32(DI)(R12*1)
	VMOVUPD      Y2, 64(DI)(R12*1)
	VMOVUPD      Y3, 96(DI)(R12*1)
	ADDQ         $128, R12
	SUBQ         $16, R13
	JNE          gblock
	JMP          gnext

gpartial:
	LOADMASKS(R13)
	VMASKMOVPD 0(DI)(R12*1), Y12, Y0
	VMASKMOVPD 32(DI)(R12*1), Y13, Y1
	VMASKMOVPD 64(DI)(R12*1), Y14, Y2
	VMASKMOVPD 96(DI)(R12*1), Y15, Y3
	LEAQ       (BX)(R12*1), R8
	MOVQ       DX, R14
	MOVQ       R11, CX

gmsample:
	VBROADCASTSD (R14), Y8
	VMASKMOVPD   0(R8), Y12, Y4
	VMASKMOVPD   32(R8), Y13, Y5
	VMASKMOVPD   64(R8), Y14, Y6
	VMASKMOVPD   96(R8), Y15, Y7
	GRADSTEP
	ADDQ         R9, R8
	ADDQ         R10, R14
	DECQ         CX
	JNE          gmsample
	VBROADCASTSD scale+96(FP), Y8
	SCALE4
	VMASKMOVPD   Y0, Y12, 0(DI)(R12*1)
	VMASKMOVPD   Y1, Y13, 32(DI)(R12*1)
	VMASKMOVPD   Y2, Y14, 64(DI)(R12*1)
	VMASKMOVPD   Y3, Y15, 96(DI)(R12*1)

gnext:
	ADDQ R9, DI
	ADDQ $8, DX
	JMP  grow

gdone:
	VZEROUPPER
	RET

// func transposeAVX2(w, wt []float64, in, stride int) (sum float64)
//
// wt[i·stride+o] = w[o·in+i] for o < len(w)/in and i < in, both rounded
// down to multiples of four: blocks of four rows by four inputs, each loaded
// as four rows, transposed in registers and stored as four rows of wt. The
// caller copies the rest. It returns the sum of x−x over the weights it
// moved: +0 when every one is finite, NaN when one is ±Inf or NaN.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), AX
	MOVQ wt_base+24(FP), DI
	MOVQ in+48(FP), R8
	MOVQ stride+56(FP), R9
	VXORPD Y8, Y8, Y8
	XORQ DX, DX
	DIVQ R8                  // AX = rows
	SHRQ $2, AX              // blocks of four rows
	MOVQ R8, R10
	SHRQ $2, R10             // blocks of four inputs
	SHLQ $3, R8              // bytes per row of w
	SHLQ $3, R9              // bytes per row of wt
	LEAQ (R8)(R8*2), R11     // three rows of w
	LEAQ (R9)(R9*2), R12     // three rows of wt
	TESTQ R10, R10
	JEQ  tdone

trows:
	TESTQ AX, AX
	JEQ   tdone
	MOVQ  SI, BX             // the block's four rows of w, at input 0
	MOVQ  DI, CX             // the block's four columns of wt, at input 0
	MOVQ  R10, R13

tcols:
	VMOVUPD     (BX), Y0
	VMOVUPD     (BX)(R8*1), Y1
	VMOVUPD     (BX)(R8*2), Y2
	VMOVUPD     (BX)(R11*1), Y3
	VSUBPD      Y0, Y0, Y9
	VADDPD      Y9, Y8, Y8
	VSUBPD      Y1, Y1, Y9
	VADDPD      Y9, Y8, Y8
	VSUBPD      Y2, Y2, Y9
	VADDPD      Y9, Y8, Y8
	VSUBPD      Y3, Y3, Y9
	VADDPD      Y9, Y8, Y8
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VPERM2F128  $0x20, Y6, Y4, Y0
	VPERM2F128  $0x20, Y7, Y5, Y1
	VPERM2F128  $0x31, Y6, Y4, Y2
	VPERM2F128  $0x31, Y7, Y5, Y3
	VMOVUPD     Y0, (CX)
	VMOVUPD     Y1, (CX)(R9*1)
	VMOVUPD     Y2, (CX)(R9*2)
	VMOVUPD     Y3, (CX)(R12*1)
	ADDQ        $32, BX
	LEAQ        (CX)(R9*4), CX
	DECQ        R13
	JNE         tcols
	LEAQ        (SI)(R8*4), SI
	ADDQ        $32, DI
	DECQ        AX
	JMP         trows

tdone:
	VEXTRACTF128 $1, Y8, X9
	VADDPD       X9, X8, X8
	VUNPCKHPD    X8, X8, X9
	VADDSD       X9, X8, X8
	VMOVSD       X8, sum+64(FP)
	VZEROUPPER
	RET

// ADAMSTEP runs one Adam step on four lanes: g in Y0, m in Y1, v in Y3 and
// p in Y5 become m, v and p updated, with the constants of adamAVX2 in
// Y8–Y15. Each operation takes its operands in the order an ordinary amd64
// build of Adam.Step's Go loop does.
#define ADAMSTEP \
	VMULPD  Y8, Y1, Y1;   \
	VMULPD  Y0, Y9, Y2;   \
	VADDPD  Y1, Y2, Y1;   \
	VMULPD  Y10, Y3, Y3;  \
	VMULPD  Y0, Y11, Y4;  \
	VMULPD  Y4, Y0, Y4;   \
	VADDPD  Y3, Y4, Y3;   \
	VDIVPD  Y12, Y1, Y2;  \
	VDIVPD  Y13, Y3, Y4;  \
	VMULPD  Y14, Y2, Y2;  \
	VSQRTPD Y4, Y4;       \
	VADDPD  Y15, Y4, Y4;  \
	VDIVPD  Y4, Y2, Y2;   \
	VSUBPD  Y2, Y5, Y5

// func adamAVX2(p, grad, m, v []float64, k *[8]float64)
//
// One Adam step over p, four elements per instruction, with g = grad and
// k = {β1, 1−β1, β2, 1−β2, 1−β1ᵗ, 1−β2ᵗ, lr, ε}:
//   m = β1·m + (1−β1)·g;  v = β2·v + ((1−β2)·g)·g
//   p = p − (lr·(m/(1−β1ᵗ))) / (√(v/(1−β2ᵗ)) + ε)
// The last len(p) % 4 elements go through a mask.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	XORQ BX, BX              // byte offset

aloop:
	CMPQ CX, $4
	JLT  atail
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (R8)(BX*1), Y1
	VMOVUPD (R9)(BX*1), Y3
	VMOVUPD (DI)(BX*1), Y5
	ADAMSTEP
	VMOVUPD Y1, (R8)(BX*1)
	VMOVUPD Y3, (R9)(BX*1)
	VMOVUPD Y5, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     aloop

atail:
	TESTQ CX, CX
	JEQ   adone
	LEAQ  laneMask<>+128(SB), AX
	NEGQ  CX
	VMOVUPD (AX)(CX*8), Y7
	VMASKMOVPD (SI)(BX*1), Y7, Y0
	VMASKMOVPD (R8)(BX*1), Y7, Y1
	VMASKMOVPD (R9)(BX*1), Y7, Y3
	VMASKMOVPD (DI)(BX*1), Y7, Y5
	ADAMSTEP
	VMASKMOVPD Y1, Y7, (R8)(BX*1)
	VMASKMOVPD Y3, Y7, (R9)(BX*1)
	VMASKMOVPD Y5, Y7, (DI)(BX*1)

adone:
	VZEROUPPER
	RET

// rowLanes is, for each 4-bit mask m, the lanes whose bit m sets, ascending,
// as four int64s (the unused ones 0): liveRowsAVX2 adds a block's first
// index to the entry of the block's mask and stores all four.
DATA rowLanes<>+0x000(SB)/8, $0
DATA rowLanes<>+0x008(SB)/8, $0
DATA rowLanes<>+0x010(SB)/8, $0
DATA rowLanes<>+0x018(SB)/8, $0
DATA rowLanes<>+0x020(SB)/8, $0
DATA rowLanes<>+0x028(SB)/8, $0
DATA rowLanes<>+0x030(SB)/8, $0
DATA rowLanes<>+0x038(SB)/8, $0
DATA rowLanes<>+0x040(SB)/8, $1
DATA rowLanes<>+0x048(SB)/8, $0
DATA rowLanes<>+0x050(SB)/8, $0
DATA rowLanes<>+0x058(SB)/8, $0
DATA rowLanes<>+0x060(SB)/8, $0
DATA rowLanes<>+0x068(SB)/8, $1
DATA rowLanes<>+0x070(SB)/8, $0
DATA rowLanes<>+0x078(SB)/8, $0
DATA rowLanes<>+0x080(SB)/8, $2
DATA rowLanes<>+0x088(SB)/8, $0
DATA rowLanes<>+0x090(SB)/8, $0
DATA rowLanes<>+0x098(SB)/8, $0
DATA rowLanes<>+0x0a0(SB)/8, $0
DATA rowLanes<>+0x0a8(SB)/8, $2
DATA rowLanes<>+0x0b0(SB)/8, $0
DATA rowLanes<>+0x0b8(SB)/8, $0
DATA rowLanes<>+0x0c0(SB)/8, $1
DATA rowLanes<>+0x0c8(SB)/8, $2
DATA rowLanes<>+0x0d0(SB)/8, $0
DATA rowLanes<>+0x0d8(SB)/8, $0
DATA rowLanes<>+0x0e0(SB)/8, $0
DATA rowLanes<>+0x0e8(SB)/8, $1
DATA rowLanes<>+0x0f0(SB)/8, $2
DATA rowLanes<>+0x0f8(SB)/8, $0
DATA rowLanes<>+0x100(SB)/8, $3
DATA rowLanes<>+0x108(SB)/8, $0
DATA rowLanes<>+0x110(SB)/8, $0
DATA rowLanes<>+0x118(SB)/8, $0
DATA rowLanes<>+0x120(SB)/8, $0
DATA rowLanes<>+0x128(SB)/8, $3
DATA rowLanes<>+0x130(SB)/8, $0
DATA rowLanes<>+0x138(SB)/8, $0
DATA rowLanes<>+0x140(SB)/8, $1
DATA rowLanes<>+0x148(SB)/8, $3
DATA rowLanes<>+0x150(SB)/8, $0
DATA rowLanes<>+0x158(SB)/8, $0
DATA rowLanes<>+0x160(SB)/8, $0
DATA rowLanes<>+0x168(SB)/8, $1
DATA rowLanes<>+0x170(SB)/8, $3
DATA rowLanes<>+0x178(SB)/8, $0
DATA rowLanes<>+0x180(SB)/8, $2
DATA rowLanes<>+0x188(SB)/8, $3
DATA rowLanes<>+0x190(SB)/8, $0
DATA rowLanes<>+0x198(SB)/8, $0
DATA rowLanes<>+0x1a0(SB)/8, $0
DATA rowLanes<>+0x1a8(SB)/8, $2
DATA rowLanes<>+0x1b0(SB)/8, $3
DATA rowLanes<>+0x1b8(SB)/8, $0
DATA rowLanes<>+0x1c0(SB)/8, $1
DATA rowLanes<>+0x1c8(SB)/8, $2
DATA rowLanes<>+0x1d0(SB)/8, $3
DATA rowLanes<>+0x1d8(SB)/8, $0
DATA rowLanes<>+0x1e0(SB)/8, $0
DATA rowLanes<>+0x1e8(SB)/8, $1
DATA rowLanes<>+0x1f0(SB)/8, $2
DATA rowLanes<>+0x1f8(SB)/8, $3
GLOBL rowLanes<>(SB), RODATA|NOPTR, $512

// LISTBLOCK appends to the row list at DI, n in DX, the indices of the
// block of four in Y0, whose first index is AX, that are not ±0 (an
// unordered-or-not-equal compare with +0 in Y15: NaN is kept), or all four
// where R9 is 15: the entry of rowLanes for the block's mask plus AX, stored
// as four, and n plus the mask's count. No branch on the data. It clobbers
// BX, R10, Y1 and Y2.
#define LISTBLOCK \
	VCMPPD       $4, Y15, Y0, Y2; \
	VMOVMSKPD    Y2, BX;          \
	ORQ          R9, BX;          \
	VMOVQ        AX, X1;          \
	VPBROADCASTQ X1, Y1;          \
	MOVQ         BX, R10;         \
	SHLQ         $5, R10;         \
	VPADDQ       (R8)(R10*1), Y1, Y1; \
	VMOVDQU      Y1, (DI)(DX*8);  \
	POPCNTQ      BX, BX;          \
	ADDQ         BX, DX

// func clampRowsAVX2(v []float64, rows []int, keep int) (n int)
//
// The ReLU clamp and the next layer's row list in one pass over the blocks
// of four below len(v) &^ 3: each block is clamped (v[i] = +0 wherever
// v[i] < 0, as clampNegative does), stored, and listed: rows gets, ascending,
// the indices of the entries now other than ±0, or of every entry where
// keep is 15. It returns how many it wrote. Each store writes four entries
// from rows[n] on, which the next block overwrites; n is at most the
// block's first index, so it stays inside len(v).
TEXT ·clampRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	MOVQ   rows_base+24(FP), DI
	MOVQ   keep+48(FP), R9
	LEAQ   rowLanes<>(SB), R8
	VXORPD Y15, Y15, Y15
	XORQ   AX, AX            // the block's first index
	XORQ   DX, DX            // rows written

crloop:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     crdone
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $0x11, Y15, Y0, Y1
	VANDNPD Y0, Y1, Y0
	VMOVUPD Y0, (SI)(AX*8)
	LISTBLOCK
	ADDQ    $4, AX
	JMP     crloop

crdone:
	MOVQ DX, n+56(FP)
	VZEROUPPER
	RET
