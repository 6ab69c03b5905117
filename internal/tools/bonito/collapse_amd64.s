#include "go_asm.h"
#include "textflag.h"

// changeMasks compares eight classes per YMM register: Y0 the block, Y2 the
// eight classes before the block's, Y14 the blank class in every lane.
// VMOVMSKPS turns each compare into one byte. The first block has no class
// before it in classes: Y1 is that block moved up one lane by Y15's lane
// indices, and Y2 is Y1 with lane 0 taken from Y13, prev in every lane.
// Every later block loads the classes before it from -4(SI).

// func changeMasks(classes []int32, prev int32, diff, nonBlank []uint64)
TEXT ·changeMasks(SB), NOSPLIT, $0-80
	MOVQ classes_base+0(FP), SI
	MOVQ classes_len+8(FP), CX
	MOVL prev+24(FP), AX
	MOVQ diff_base+32(FP), DI
	MOVQ nonBlank_base+56(FP), R8
	SHRQ $3, CX
	JZ   done

	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         $const_classBlank, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      up<>(SB), Y15
	XORQ         R9, R9

	VMOVDQU  (SI), Y0
	VPERMD   Y0, Y15, Y1
	VPBLENDD $1, Y13, Y1, Y2
	JMP      compare

loop:
	VMOVDQU (SI), Y0
	VMOVDQU -4(SI), Y2

compare:
	VPCMPEQD  Y2, Y0, Y2
	VMOVMSKPS Y2, AX
	NOTL      AX
	MOVB      AL, (DI)(R9*1)
	VPCMPEQD  Y14, Y0, Y0
	VMOVMSKPS Y0, AX
	NOTL      AX
	MOVB      AL, (R8)(R9*1)
	ADDQ      $32, SI
	INCQ      R9
	CMPQ      R9, CX
	JNE       loop
	VZEROUPPER

done:
	RET

// up moves each lane one up, and the last into lane 0.
DATA up<>+0x00(SB)/8, $0x0000000000000007
DATA up<>+0x08(SB)/8, $0x0000000200000001
DATA up<>+0x10(SB)/8, $0x0000000400000003
DATA up<>+0x18(SB)/8, $0x0000000600000005
GLOBL up<>(SB), RODATA|NOPTR, $32
