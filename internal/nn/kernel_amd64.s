#include "textflag.h"

// The AVX2 kernels behind Dense.Forward, Network.Infer, Dense.backward, the
// ReLU clamp and Adam.Step (kernel.go says when they run; DESIGN.md §10 has
// the contract). Each YMM lane carries one output of the Go loop and runs
// that loop's IEEE sequence: a VMULPD, then a VADDPD, never an FMA (which
// rounds once where the Go loop rounds twice), every sum in its Go order.
// Every add into a sum takes the sum as its first source operand, whose NaN
// x86 returns when both operands are NaN. Partial blocks go through masks
// from laneMask, so no kernel reads or writes outside its slices.

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func affineT(wt, b, x, z []float64)
//
// z[o] = b[o] + wt[0·s+o]·x[0] + wt[1·s+o]·x[1] + … for every o, where the
// row stride s is len(z) rounded up to 16. Outputs go 16 at a time in four
// accumulators of four lanes, which keeps both multiply-add ports busy; the
// last block loads b and stores z through masks and reads the zero padding of
// wt in its dead lanes.
TEXT ·affineT(SB), NOSPLIT, $0-96
	MOVQ wt_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ x_base+48(FP), DI
	MOVQ x_len+56(FP), CX
	MOVQ z_base+72(FP), DX
	MOVQ z_len+80(FP), R8
	LEAQ 15(R8), R9
	ANDQ $-16, R9
	SHLQ $3, R9              // bytes per row of wt

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
	MOVQ  SI, R10
	MOVQ  DI, R11
	MOVQ  CX, R12
	TESTQ R12, R12
	JEQ   fstore

floop:
	VBROADCASTSD (R11), Y4
	VMULPD       0(R10), Y4, Y5
	VMULPD       32(R10), Y4, Y6
	VMULPD       64(R10), Y4, Y7
	VMULPD       96(R10), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R9, R10
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

// Backward row steps. Y8 holds the row's loss gradient g in every lane, Y4–Y7
// the block's inputs, Y0–Y3 its input-gradient sums; AX is the byte offset of
// the block in the row, R8 the base of w and R9 of gradW.

// GW adds g·x to four entries of the gradW row: gradW + (x·g).
#define GW(off, xr) \
	VMULPD  Y8, xr, Y9;           \
	VMOVUPD off(R9)(AX*1), Y10;   \
	VADDPD  Y9, Y10, Y10;         \
	VMOVUPD Y10, off(R9)(AX*1)

// DIN adds g·w to four input-gradient sums: acc + (g·w).
#define DIN(off, acc) \
	VMULPD off(R8)(AX*1), Y8, Y11; \
	VADDPD Y11, acc, acc

// GWM and DINM are GW and DIN through the masks in Y12–Y15.
#define GWM(off, xr, mask) \
	VMULPD     Y8, xr, Y9;                \
	VMASKMOVPD off(R9)(AX*1), mask, Y10;  \
	VADDPD     Y9, Y10, Y10;              \
	VMASKMOVPD Y10, mask, off(R9)(AX*1)

#define DINM(off, acc, mask) \
	VMASKMOVPD off(R8)(AX*1), mask, Y11; \
	VMULPD     Y11, Y8, Y11;             \
	VADDPD     Y11, acc, acc

// ROWSTEP loads the next live row's g into Y8 and its block offset into AX,
// or jumps to done when the rows have run out.
#define ROWSTEP(done) \
	CMPQ         R14, R10;       \
	JGE          done;           \
	MOVQ         (SI)(R14*8), AX; \
	VBROADCASTSD (DX)(AX*8), Y8;  \
	IMULQ        R11, AX;        \
	ADDQ         R12, AX;        \
	INCQ         R14

// func backwardAVX2(w, gradW, gradB, x, dOut, dIn []float64, rows []int)
//
// For every row o in rows, ascending: gradB[o] += dOut[o], and
// gradW[o][i] += x[i]·dOut[o] at every input i. When dIn is not empty,
// dIn[i] = Σ_o dOut[o]·w[o][i] from +0 over the same rows, at every i.
// Inputs go 16 at a time: the block's x and its four dIn sums stay in
// registers while the rows stream past; the last block goes through masks.
TEXT ·backwardAVX2(SB), NOSPLIT, $0-168
	MOVQ w_base+0(FP), R8
	MOVQ gradW_base+24(FP), R9
	MOVQ gradB_base+48(FP), BX
	MOVQ dOut_base+96(FP), DX
	MOVQ rows_base+144(FP), SI
	MOVQ rows_len+152(FP), R10

	XORQ R14, R14

bbias:
	CMPQ    R14, R10
	JGE     bblocks
	MOVQ    (SI)(R14*8), AX
	VMOVSD  (BX)(AX*8), X0
	VADDSD  (DX)(AX*8), X0, X0
	VMOVSD  X0, (BX)(AX*8)
	INCQ    R14
	JMP     bbias

bblocks:
	MOVQ x_base+72(FP), BX
	MOVQ x_len+80(FP), R13   // inputs left
	MOVQ dIn_base+120(FP), DI
	MOVQ dIn_len+128(FP), CX // 0: no input gradient
	MOVQ R13, R11
	SHLQ $3, R11             // bytes per row of w
	XORQ R12, R12            // byte offset of the block

bblock:
	CMPQ R13, $16
	JLT  bpartial
	VMOVUPD 0(BX)(R12*1), Y4
	VMOVUPD 32(BX)(R12*1), Y5
	VMOVUPD 64(BX)(R12*1), Y6
	VMOVUPD 96(BX)(R12*1), Y7
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	XORQ    R14, R14
	TESTQ   CX, CX
	JEQ     browgw

browdin:
	ROWSTEP(bstore)
	GW(0, Y4)
	GW(32, Y5)
	GW(64, Y6)
	GW(96, Y7)
	DIN(0, Y0)
	DIN(32, Y1)
	DIN(64, Y2)
	DIN(96, Y3)
	JMP browdin

browgw:
	ROWSTEP(bnext)
	GW(0, Y4)
	GW(32, Y5)
	GW(64, Y6)
	GW(96, Y7)
	JMP browgw

bstore:
	VMOVUPD Y0, 0(DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	VMOVUPD Y2, 64(DI)(R12*1)
	VMOVUPD Y3, 96(DI)(R12*1)

bnext:
	ADDQ $128, R12
	SUBQ $16, R13
	JNE  bblock
	VZEROUPPER
	RET

bpartial:
	LOADMASKS(R13)
	VMASKMOVPD 0(BX)(R12*1), Y12, Y4
	VMASKMOVPD 32(BX)(R12*1), Y13, Y5
	VMASKMOVPD 64(BX)(R12*1), Y14, Y6
	VMASKMOVPD 96(BX)(R12*1), Y15, Y7
	VXORPD     Y0, Y0, Y0
	VXORPD     Y1, Y1, Y1
	VXORPD     Y2, Y2, Y2
	VXORPD     Y3, Y3, Y3
	XORQ       R14, R14
	TESTQ      CX, CX
	JEQ        bmrowgw

bmrowdin:
	ROWSTEP(bmstore)
	GWM(0, Y4, Y12)
	GWM(32, Y5, Y13)
	GWM(64, Y6, Y14)
	GWM(96, Y7, Y15)
	DINM(0, Y0, Y12)
	DINM(32, Y1, Y13)
	DINM(64, Y2, Y14)
	DINM(96, Y3, Y15)
	JMP bmrowdin

bmrowgw:
	ROWSTEP(bdone)
	GWM(0, Y4, Y12)
	GWM(32, Y5, Y13)
	GWM(64, Y6, Y14)
	GWM(96, Y7, Y15)
	JMP bmrowgw

bmstore:
	VMASKMOVPD Y0, Y12, 0(DI)(R12*1)
	VMASKMOVPD Y1, Y13, 32(DI)(R12*1)
	VMASKMOVPD Y2, Y14, 64(DI)(R12*1)
	VMASKMOVPD Y3, Y15, 96(DI)(R12*1)

bdone:
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

// func clampAVX2(v []float64)
//
// v[i] = +0 wherever v[i] < 0: a quiet ordered compare against zero, so −0
// and NaN stay as they are, and an and-not of the compare mask. The last
// len(v) % 4 elements go through a mask.
TEXT ·clampAVX2(SB), NOSPLIT, $0-24
	MOVQ   v_base+0(FP), DI
	MOVQ   v_len+8(FP), CX
	VXORPD Y15, Y15, Y15

cloop:
	CMPQ    CX, $4
	JLT     ctail
	VMOVUPD (DI), Y0
	VCMPPD  $0x11, Y15, Y0, Y1
	VANDNPD Y0, Y1, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     cloop

ctail:
	TESTQ      CX, CX
	JEQ        cdone
	LEAQ       laneMask<>+128(SB), AX
	NEGQ       CX
	VMOVUPD    (AX)(CX*8), Y2
	VMASKMOVPD (DI), Y2, Y0
	VCMPPD     $0x11, Y15, Y0, Y1
	VANDNPD    Y0, Y1, Y0
	VMASKMOVPD Y0, Y2, (DI)

cdone:
	VZEROUPPER
	RET
