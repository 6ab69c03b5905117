#include "textflag.h"

// gcCountAVX2 tests 32 bases per YMM register, two registers a loop: a base
// is G or C exactly when (b | 0x04) == 'G'. Each block's VPCMPEQB mask (-1
// per G or C) is subtracted from Y3, the per-byte counts, which VPSADBW folds
// into Y5's four 64-bit sums every 254 blocks, before a byte could wrap. A
// last lone block follows the pairs, and the last len mod 32 bases are the
// top bytes of one more block, read to the end of bases and masked by keep<>.
// Registers: Y0 and Y6 the blocks, Y1 0x04 and Y2 'G' in every byte, Y4
// zero. Bases shorter than a block are tested one at a time.

// func gcCountAVX2(bases []byte) int
TEXT ·gcCountAVX2(SB), NOSPLIT, $0-32
	MOVQ bases_base+0(FP), SI
	MOVQ bases_len+8(FP), CX
	XORQ AX, AX
	CMPQ CX, $32
	JB   short

	MOVL         $0x04040404, DX
	VMOVD        DX, X1
	VPBROADCASTD X1, Y1
	MOVL         $0x47474747, DX
	VMOVD        DX, X2
	VPBROADCASTD X2, Y2
	VPXOR        Y3, Y3, Y3
	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	LEAQ         -32(SI)(CX*1), DI // the last block's start
	LEAQ         -64(SI)(CX*1), R9 // the last pair's start
	MOVQ         $127, R8

pair:
	CMPQ     SI, R9
	JHI      single
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y6
	VPOR     Y1, Y0, Y0
	VPOR     Y1, Y6, Y6
	VPCMPEQB Y2, Y0, Y0
	VPCMPEQB Y2, Y6, Y6
	VPSUBB   Y0, Y3, Y3
	VPSUBB   Y6, Y3, Y3
	ADDQ     $64, SI
	DECQ     R8
	JNZ      pair
	VPSADBW  Y4, Y3, Y3
	VPADDQ   Y3, Y5, Y5
	VPXOR    Y3, Y3, Y3
	MOVQ     $127, R8
	JMP      pair

single:
	// Fewer than 64 bases are left, and Y3 holds at most 252 per byte.
	CMPQ     SI, DI
	JHI      tail
	VMOVDQU  (SI), Y0
	VPOR     Y1, Y0, Y0
	VPCMPEQB Y2, Y0, Y0
	VPSUBB   Y0, Y3, Y3
	ADDQ     $32, SI

tail:
	// DI+32-SI bases are left, 0 to 31: keep the top that many bytes of the
	// block at DI.
	LEAQ         32(DI), BX
	SUBQ         SI, BX
	VMOVDQU      (DI), Y0
	VPOR         Y1, Y0, Y0
	VPCMPEQB     Y2, Y0, Y0
	LEAQ         keep<>(SB), DX
	VPAND        (DX)(BX*1), Y0, Y0
	VPSUBB       Y0, Y3, Y3
	VPSADBW      Y4, Y3, Y3
	VPADDQ       Y3, Y5, Y5
	VEXTRACTI128 $1, Y5, X3
	VPADDQ       X3, X5, X5
	VPSHUFD      $0x4e, X5, X3
	VPADDQ       X3, X5, X5
	VMOVQ        X5, AX
	VZEROUPPER
	MOVQ         AX, ret+24(FP)
	RET

short:
	TESTQ CX, CX
	JZ    done

scalar:
	MOVBLZX (SI), DX
	ORL     $4, DX
	CMPL    DX, $0x47
	JNE     next
	INCQ    AX

next:
	INCQ SI
	DECQ CX
	JNZ  scalar

done:
	MOVQ AX, ret+24(FP)
	RET

// keep is 32 zero bytes, then 32 of 0xff: the 32 bytes from offset n keep the
// top n.
DATA keep<>+0x00(SB)/8, $0
DATA keep<>+0x08(SB)/8, $0
DATA keep<>+0x10(SB)/8, $0
DATA keep<>+0x18(SB)/8, $0
DATA keep<>+0x20(SB)/8, $-1
DATA keep<>+0x28(SB)/8, $-1
DATA keep<>+0x30(SB)/8, $-1
DATA keep<>+0x38(SB)/8, $-1
GLOBL keep<>(SB), RODATA|NOPTR, $64
