#include "textflag.h"

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

// The constants of math.Exp's amd64 kernel (exp_amd64.s), written as it
// writes them, and the bounds of the inputs whose exponent it takes through
// the normal path: ln 2's halves, 1/ln 2, the reduction's 2⁻⁴ and the
// Taylor coefficients 1/8! to 1/2!, then 1 and 2.
DATA expConst<>+0x00(SB)/8, $1.4426950408889634073599246810018920
DATA expConst<>+0x08(SB)/8, $0.69314718055966295651160180568695068359375
DATA expConst<>+0x10(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expConst<>+0x18(SB)/8, $0.0625
DATA expConst<>+0x20(SB)/8, $2.4801587301587301587e-5
DATA expConst<>+0x28(SB)/8, $1.9841269841269841270e-4
DATA expConst<>+0x30(SB)/8, $1.3888888888888888889e-3
DATA expConst<>+0x38(SB)/8, $8.3333333333333333333e-3
DATA expConst<>+0x40(SB)/8, $4.1666666666666666667e-2
DATA expConst<>+0x48(SB)/8, $1.6666666666666666667e-1
DATA expConst<>+0x50(SB)/8, $0.5
DATA expConst<>+0x58(SB)/8, $1.0
DATA expConst<>+0x60(SB)/8, $2.0
GLOBL expConst<>(SB), RODATA|NOPTR, $104

// expBounds is [−708, 709] in four lanes each, then the exponent bias 1023
// in four int32 lanes.
DATA expBounds<>+0x00(SB)/8, $-708.0
DATA expBounds<>+0x08(SB)/8, $-708.0
DATA expBounds<>+0x10(SB)/8, $-708.0
DATA expBounds<>+0x18(SB)/8, $-708.0
DATA expBounds<>+0x20(SB)/8, $709.0
DATA expBounds<>+0x28(SB)/8, $709.0
DATA expBounds<>+0x30(SB)/8, $709.0
DATA expBounds<>+0x38(SB)/8, $709.0
DATA expBounds<>+0x40(SB)/4, $1023
DATA expBounds<>+0x44(SB)/4, $1023
DATA expBounds<>+0x48(SB)/4, $1023
DATA expBounds<>+0x4c(SB)/4, $1023
GLOBL expBounds<>(SB), RODATA|NOPTR, $80

// func expAVX2(v []float64) int
//
// v[i] = math.Exp(v[i]), four at a time, while every lane of the next four is
// in [−708, 709], and returns how many it did: a multiple of four, stopping
// at the first block with a lane outside, or NaN, or short of four. On such
// inputs math.Exp's amd64 kernel, where the CPU has FMA, takes its normal
// path; each lane runs that path's instructions, the scalar FMA, multiply
// and add as their packed forms, so the bits are math.Exp's.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	XORQ DX, DX
	LEAQ expConst<>(SB), AX
	VBROADCASTSD 0x00(AX), Y15 // 1/ln 2
	VBROADCASTSD 0x08(AX), Y14 // ln 2, upper
	VBROADCASTSD 0x10(AX), Y13 // ln 2, lower
	VBROADCASTSD 0x18(AX), Y12 // 2⁻⁴
	VBROADCASTSD 0x20(AX), Y11 // 1/8!
	VBROADCASTSD 0x28(AX), Y10 // 1/7!
	VBROADCASTSD 0x30(AX), Y9  // 1/6!
	VBROADCASTSD 0x38(AX), Y8  // 1/5!
	VBROADCASTSD 0x40(AX), Y7  // 1/4!
	VBROADCASTSD 0x48(AX), Y6  // 1/3!
	VBROADCASTSD 0x50(AX), Y5  // 1/2
	VBROADCASTSD 0x58(AX), Y4  // 1
	VBROADCASTSD 0x60(AX), Y3  // 2
	LEAQ expBounds<>(SB), BX

eloop:
	CMPQ      CX, $4
	JLT       edone
	VMOVUPD   (DI), Y0
	VCMPPD    $0x1d, 0(BX), Y0, Y1  // x >= −708, false for NaN
	VCMPPD    $0x12, 32(BX), Y0, Y2 // x <= 709
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       edone

	// k = round(x/ln 2); x −= k·ln 2 in two fused steps; x /= 16.
	VMULPD       Y15, Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD Y14, Y1, Y0
	VFNMADD231PD Y13, Y1, Y0
	VMULPD       Y12, Y0, Y0

	// The Taylor polynomial by fused Horner steps, then four squarings of
	// the reduction: y = y·(y+2), the last one fused with the final +1.
	VMOVAPD     Y11, Y1
	VFMADD213PD Y10, Y0, Y1
	VFMADD213PD Y9, Y0, Y1
	VFMADD213PD Y8, Y0, Y1
	VFMADD213PD Y7, Y0, Y1
	VFMADD213PD Y6, Y0, Y1
	VFMADD213PD Y5, Y0, Y1
	VFMADD213PD Y4, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y3, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y3, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y3, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y3, Y0, Y1
	VFMADD213PD Y4, Y1, Y0

	// Times 2^k: k+1023 into the exponent field.
	VPADDD    64(BX), X2, X2
	VPMOVSXDQ X2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	SUBQ      $4, CX
	ADDQ      $4, DX
	JMP       eloop

edone:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET
