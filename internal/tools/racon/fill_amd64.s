#include "textflag.h"

// The row passes of addSequence, eight int32 cells per YMM register. prev[i]
// is cell i's diagonal and prev[i+1] the cell above it, as in fillRow. A
// block of eight cells first takes t = max(start, diag+sb, up+gap), where
// start is in[i], or negInf for a fresh row, which is then not loaded. The
// last len(in) mod 8 cells are one block read and written through a mask.
//
// fillRowAVX2 then adds the left neighbour. Within a block, cell k is
// max over j <= k of t[j] + (k-j)*gap, and left + (k+1)*gap for the cell
// before the block: a max-plus prefix scan, taken in three steps that move
// each lane 1, 2 and 4 lanes up and add 1, 2 and 4 gaps. A max-plus scan is
// associative, so it is exactly fillRow's left-to-right recurrence. The
// moves clamp at lane 0 instead of shifting in a filler: with gap <= 0
// (NewGraph refuses more), lane k < d is handed t[0] + d*gap, which is no
// more than the t[0] + k*gap it already holds. No value is below negInf,
// and with gap >= minGap none comes near int32's floor.
//
// Registers: Y0-Y2 a block's working values, Y4 the tail's mask, Y5 the
// index that broadcasts lane 7, Y6-Y8 the indices that move lanes up 4, 2
// and 1, Y9 the running maximum, Y10 the left value in every lane, Y11
// negInf, Y12 the ramp (1..8)*gap, Y13-Y15 4, 2 and 1 gaps.

#define NEGINF $-536870912

// START folds a block's start into Y0: negInf, and then, unless the row is
// fresh (R9 set), in's cells, which Y2 holds for a tail.
#define START(IN, skip) \
	VPMAXSD Y11, Y0, Y0; \
	TESTQ   R9, R9; \
	JNZ     skip; \
	VPMAXSD IN, Y0, Y0; \
skip:

// SCAN turns a block's t in Y0 into its max-plus prefix scan.
#define SCAN \
	VPERMD  Y0, Y8, Y1; \
	VPADDD  Y15, Y1, Y1; \
	VPMAXSD Y1, Y0, Y0; \
	VPERMD  Y0, Y7, Y1; \
	VPADDD  Y14, Y1, Y1; \
	VPMAXSD Y1, Y0, Y0; \
	VPERMD  Y0, Y6, Y1; \
	VPADDD  Y13, Y1, Y1; \
	VPMAXSD Y1, Y0, Y0

// SETUP loads the arguments both passes share: DI in, CX len(in), SI prev,
// DX sb, Y15 the gap in AX, Y11 negInf; R10 is len(in) rounded down to
// eight, and R8 the cell index, from 0.
#define SETUP \
	MOVQ         in_base+0(FP), DI; \
	MOVQ         in_len+8(FP), CX; \
	MOVQ         prev_base+24(FP), SI; \
	MOVQ         sb_base+48(FP), DX; \
	VMOVD        AX, X15; \
	VPBROADCASTD X15, Y15; \
	MOVL         NEGINF, AX; \
	VMOVD        AX, X11; \
	VPBROADCASTD X11, Y11; \
	MOVQ         CX, R10; \
	ANDQ         $-8, R10; \
	XORQ         R8, R8

// TAILMASK sets Y4 to all ones in the lanes of the len(in) - R8 tail cells
// and AX to that count; ZF is set if there are none.
#define TAILMASK \
	MOVQ         CX, AX; \
	SUBQ         R8, AX; \
	LEAL         1(AX), BX; \
	VMOVD        BX, X4; \
	VPBROADCASTD X4, Y4; \
	VPCMPGTD     lanes<>(SB), Y4, Y4; \
	TESTQ        AX, AX

// func foldRowAVX2(in, prev, sb []int32, gap int32, fresh bool)
TEXT ·foldRowAVX2(SB), NOSPLIT, $0-77
	MOVL    gap+72(FP), AX
	SETUP
	MOVBQZX fresh+76(FP), R9
	CMPQ    R8, R10
	JAE     foldtail

foldblock:
	VMOVDQU (SI)(R8*4), Y0
	VPADDD  (DX)(R8*4), Y0, Y0
	VPADDD  4(SI)(R8*4), Y15, Y1
	VPMAXSD Y1, Y0, Y0
	START((DI)(R8*4), foldfresh)
	VMOVDQU Y0, (DI)(R8*4)
	ADDQ    $8, R8
	CMPQ    R8, R10
	JB      foldblock

foldtail:
	TAILMASK
	JZ         folddone
	VPMASKMOVD (SI)(R8*4), Y4, Y0
	VPMASKMOVD (DX)(R8*4), Y4, Y2
	VPADDD     Y2, Y0, Y0
	VPMASKMOVD 4(SI)(R8*4), Y4, Y1
	VPADDD     Y15, Y1, Y1
	VPMAXSD    Y1, Y0, Y0
	VPMASKMOVD (DI)(R8*4), Y4, Y2
	START(Y2, foldtailfresh)
	VPMASKMOVD Y0, Y4, (DI)(R8*4)

folddone:
	VZEROUPPER
	RET

// func fillRowAVX2(in, prev, sb []int32, left, gap int32, fresh bool) (top int32, at int)
TEXT ·fillRowAVX2(SB), NOSPLIT, $0-104
	MOVL         gap+76(FP), AX
	SETUP
	MOVBQZX      fresh+80(FP), R9
	VPADDD       Y15, Y15, Y14
	VPADDD       Y14, Y14, Y13
	VPMULLD      lanes<>(SB), Y15, Y12
	MOVL         left+72(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	VMOVDQU      Y11, Y9
	VMOVDQU      up1<>(SB), Y8
	VMOVDQU      up2<>(SB), Y7
	VMOVDQU      up4<>(SB), Y6
	MOVL         $7, AX
	VMOVD        AX, X5
	VPBROADCASTD X5, Y5
	CMPQ         R8, R10
	JAE          filltail

fillblock:
	VMOVDQU (SI)(R8*4), Y0
	VPADDD  (DX)(R8*4), Y0, Y0
	VPADDD  4(SI)(R8*4), Y15, Y1
	VPMAXSD Y1, Y0, Y0
	START((DI)(R8*4), fillfresh)
	SCAN
	VPADDD  Y12, Y10, Y1
	VPMAXSD Y1, Y0, Y0
	VMOVDQU Y0, (DI)(R8*4)
	VPMAXSD Y0, Y9, Y9
	VPERMD  Y0, Y5, Y10
	ADDQ    $8, R8
	CMPQ    R8, R10
	JB      fillblock

filltail:
	TAILMASK
	JZ         reduce
	VPMASKMOVD (SI)(R8*4), Y4, Y0
	VPMASKMOVD (DX)(R8*4), Y4, Y2
	VPADDD     Y2, Y0, Y0
	VPMASKMOVD 4(SI)(R8*4), Y4, Y1
	VPADDD     Y15, Y1, Y1
	VPMAXSD    Y1, Y0, Y0
	VPMASKMOVD (DI)(R8*4), Y4, Y2
	START(Y2, filltailfresh)
	SCAN
	VPADDD     Y12, Y10, Y1
	VPMAXSD    Y1, Y0, Y0
	VPMASKMOVD Y0, Y4, (DI)(R8*4)
	VPBLENDVB  Y4, Y0, Y11, Y0 // lanes past the row: negInf
	VPMAXSD    Y0, Y9, Y9

reduce:
	// The row's maximum in every lane of X0 and in AX.
	VEXTRACTI128 $1, Y9, X0
	VPMAXSD      X0, X9, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXSD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXSD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, top+88(FP)
	CMPL         AX, NEGINF
	JNE          search
	MOVQ         $-1, at+96(FP) // fillRow's strict > never moves off -1
	VZEROUPPER
	RET

search:
	// The first cell holding the maximum: a compare and a mask of its
	// lanes per block, and the lowest set bit. The maximum is in the row,
	// so it is found in a block or else in the tail, whose mask is in Y4;
	// there a lane past the row reads 0, but it comes after the lane that
	// holds the maximum.
	VPBROADCASTD X0, Y1
	XORQ         R8, R8
	CMPQ         R8, R10
	JAE          searchtail

searchblock:
	VPCMPEQD  (DI)(R8*4), Y1, Y2
	VMOVMSKPS Y2, BX
	TESTL     BX, BX
	JNZ       found
	ADDQ      $8, R8
	CMPQ      R8, R10
	JB        searchblock

searchtail:
	VPMASKMOVD (DI)(R8*4), Y4, Y2
	VPCMPEQD   Y2, Y1, Y2
	VMOVMSKPS  Y2, BX

found:
	BSFL BX, BX // BX is not 0: the same as TZCNT, without needing BMI1
	ADDQ R8, BX
	MOVQ BX, at+96(FP)
	VZEROUPPER
	RET

// lanes holds 1..8: the ramp's multipliers, and the lane numbers a tail
// mask compares against.
DATA lanes<>+0x00(SB)/8, $0x0000000200000001
DATA lanes<>+0x08(SB)/8, $0x0000000400000003
DATA lanes<>+0x10(SB)/8, $0x0000000600000005
DATA lanes<>+0x18(SB)/8, $0x0000000800000007
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// up1, up2 and up4 are VPERMD indices that move every lane 1, 2 and 4 lanes
// up, the lanes below taking lane 0.
DATA up1<>+0x00(SB)/8, $0x0000000000000000
DATA up1<>+0x08(SB)/8, $0x0000000200000001
DATA up1<>+0x10(SB)/8, $0x0000000400000003
DATA up1<>+0x18(SB)/8, $0x0000000600000005
GLOBL up1<>(SB), RODATA|NOPTR, $32

DATA up2<>+0x00(SB)/8, $0x0000000000000000
DATA up2<>+0x08(SB)/8, $0x0000000100000000
DATA up2<>+0x10(SB)/8, $0x0000000300000002
DATA up2<>+0x18(SB)/8, $0x0000000500000004
GLOBL up2<>(SB), RODATA|NOPTR, $32

DATA up4<>+0x00(SB)/8, $0x0000000000000000
DATA up4<>+0x08(SB)/8, $0x0000000000000000
DATA up4<>+0x10(SB)/8, $0x0000000100000000
DATA up4<>+0x18(SB)/8, $0x0000000300000002
GLOBL up4<>(SB), RODATA|NOPTR, $32
