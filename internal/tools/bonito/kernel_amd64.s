#include "go_asm.h"
#include "textflag.h"

// Registers of runAVX, one timestep per lane: Y0-Y2 the taps x[i], x[i+1],
// x[i+2]; Y3-Y10 the features h0-h7; Y11 +0; Y12 a broadcast weight, a
// product or a compare mask; Y13 the logit being summed; Y14 the top logit;
// Y15 its class.

// FEATURE sums feature channel c into H: (((+0 + Y0*f[c][0]) + Y1*f[c][1])
// + Y2*f[c][2]) + fb[c].
#define FEATURE(c, H) \
	VBROADCASTSS (weights_f+12*c)(SI), Y12; \
	VMULPS       Y0, Y12, Y12; \
	VADDPS       Y12, Y11, H; \
	VBROADCASTSS (weights_f+12*c+4)(SI), Y12; \
	VMULPS       Y1, Y12, Y12; \
	VADDPS       Y12, H, H; \
	VBROADCASTSS (weights_f+12*c+8)(SI), Y12; \
	VMULPS       Y2, Y12, Y12; \
	VADDPS       Y12, H, H; \
	VBROADCASTSS (weights_fb+4*c)(SI), Y12; \
	VADDPS       Y12, H, H

// TERM adds the product of feature H and its weight in class k to L.
#define TERM(k, c, H, L) \
	VBROADCASTSS (weights_k+32*k+4*c)(SI), Y12; \
	VMULPS       H, Y12, Y12; \
	VADDPS       Y12, L, L

// LOGIT sums class k into L: ((+0 + h0*k[k][0]) + h1*k[k][1]) ... +
// h7*k[k][7], then + kb[k].
#define LOGIT(k, L) \
	VBROADCASTSS (weights_k+32*k)(SI), Y12; \
	VMULPS       Y3, Y12, Y12; \
	VADDPS       Y12, Y11, L; \
	TERM(k, 1, Y4, L); \
	TERM(k, 2, Y5, L); \
	TERM(k, 3, Y6, L); \
	TERM(k, 4, Y7, L); \
	TERM(k, 5, Y8, L); \
	TERM(k, 6, Y9, L); \
	TERM(k, 7, Y10, L); \
	VBROADCASTSS (weights_kb+4*k)(SI), Y12; \
	VADDPS       Y12, L, L

// VOTE makes class k the lane's class where top < its logit Y13: the strict
// l > top of run, false for a tie and for a NaN on either side.
#define VOTE(k) \
	LOGIT(k, Y13); \
	VCMPPS    $0x11, Y13, Y14, Y12; \
	VBLENDVPS Y12, Y13, Y14, Y14; \
	VBLENDVPS Y12, classes<>+(32*k)(SB), Y15, Y15

// func runAVX(w *weights, x []float32, classes []int32)
TEXT ·runAVX(SB), NOSPLIT, $0-56
	MOVQ   w+0(FP), SI
	MOVQ   x_base+8(FP), DI
	MOVQ   classes_base+32(FP), DX
	MOVQ   classes_len+40(FP), CX
	SHRQ   $3, CX
	JZ     done
	VXORPS Y11, Y11, Y11

loop:
	VMOVUPS (DI), Y0
	VMOVUPS 4(DI), Y1
	VMOVUPS 8(DI), Y2
	FEATURE(0, Y3)
	FEATURE(1, Y4)
	FEATURE(2, Y5)
	FEATURE(3, Y6)
	FEATURE(4, Y7)
	FEATURE(5, Y8)
	FEATURE(6, Y9)
	FEATURE(7, Y10)
	LOGIT(0, Y14)
	VMOVUPS classes<>(SB), Y15 // class A
	VOTE(1)
	VOTE(2)
	VOTE(3)
	VOTE(4)
	VMOVDQU Y15, (DX)
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// classes holds class k in every lane of row k.
DATA classes<>+0x00(SB)/8, $0x0000000000000000
DATA classes<>+0x08(SB)/8, $0x0000000000000000
DATA classes<>+0x10(SB)/8, $0x0000000000000000
DATA classes<>+0x18(SB)/8, $0x0000000000000000
DATA classes<>+0x20(SB)/8, $0x0000000100000001
DATA classes<>+0x28(SB)/8, $0x0000000100000001
DATA classes<>+0x30(SB)/8, $0x0000000100000001
DATA classes<>+0x38(SB)/8, $0x0000000100000001
DATA classes<>+0x40(SB)/8, $0x0000000200000002
DATA classes<>+0x48(SB)/8, $0x0000000200000002
DATA classes<>+0x50(SB)/8, $0x0000000200000002
DATA classes<>+0x58(SB)/8, $0x0000000200000002
DATA classes<>+0x60(SB)/8, $0x0000000300000003
DATA classes<>+0x68(SB)/8, $0x0000000300000003
DATA classes<>+0x70(SB)/8, $0x0000000300000003
DATA classes<>+0x78(SB)/8, $0x0000000300000003
DATA classes<>+0x80(SB)/8, $0x0000000400000004
DATA classes<>+0x88(SB)/8, $0x0000000400000004
DATA classes<>+0x90(SB)/8, $0x0000000400000004
DATA classes<>+0x98(SB)/8, $0x0000000400000004
GLOBL classes<>(SB), RODATA|NOPTR, $160
