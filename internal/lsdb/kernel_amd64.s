#include "textflag.h"

// SSE2 halves of kernel.go's four primitives, eight uint16 costs per XMM
// register, and prefetch. Loads are unaligned throughout (spans start at any
// element). SSE2 has no unsigned word minimum or compare, so both come from
// saturating subtraction: t = x -sat y is nonzero exactly where y < x, and
// x - t is min(x, y).

// MINUW(y, x, t): x = min(x, y) per unsigned word; t is clobbered.
#define MINUW(y, x, t) \
	MOVO    x, t \
	PSUBUSW y, t \
	PSUBW   t, x

// SPLATW(r, x): every word of x = the low word of r.
#define SPLATW(r, x) \
	MOVQ    r, x     \
	PSHUFLW $0, x, x \
	PSHUFD  $0, x, x

// func minSumBlocks(a, b []wire.Cost) (done int, m wire.Cost)
TEXT ·minSumBlocks(SB), NOSPLIT, $0-58
	MOVQ    a_base+0(FP), SI
	MOVQ    a_len+8(FP), CX
	MOVQ    b_base+24(FP), DI
	ANDQ    $~7, CX
	MOVQ    CX, done+48(FP)
	MOVQ    CX, DX
	ANDQ    $~15, DX          // entries in pairs of blocks
	PCMPEQW X0, X0            // two running minima, all InfCost
	MOVO    X0, X1
	XORQ    AX, AX

pair:
	CMPQ    AX, DX
	JGE     single
	MOVOU   (SI)(AX*2), X2
	MOVOU   16(SI)(AX*2), X3
	MOVOU   (DI)(AX*2), X4
	MOVOU   16(DI)(AX*2), X5
	PADDUSW X4, X2            // saturates at 0xFFFF = InfCost
	PADDUSW X5, X3
	MINUW(X2, X0, X6)
	MINUW(X3, X1, X7)
	ADDQ    $16, AX
	JMP     pair

single:
	CMPQ    AX, CX
	JGE     fold
	MOVOU   (SI)(AX*2), X2
	MOVOU   (DI)(AX*2), X4
	PADDUSW X4, X2
	MINUW(X2, X0, X6)

fold:
	MINUW(X1, X0, X6)
	MOVO    X0, X1
	PSRLO   $8, X1            // 8 lanes → 4 → 2 → 1
	MINUW(X1, X0, X6)
	MOVO    X0, X1
	PSRLO   $4, X1
	MINUW(X1, X0, X6)
	MOVO    X0, X1
	PSRLO   $2, X1
	MINUW(X1, X0, X6)
	MOVQ    X0, AX
	MOVW    AX, m+56(FP)
	RET

// func firstSumEqBlocks(a, b []wire.Cost, m wire.Cost) int
TEXT ·firstSumEqBlocks(SB), NOSPLIT, $0-64
	MOVQ    a_base+0(FP), SI
	MOVQ    a_len+8(FP), CX
	MOVQ    b_base+24(FP), DI
	ANDQ    $~7, CX
	MOVWLZX m+48(FP), AX
	SPLATW(AX, X1)
	XORQ    AX, AX

scan:
	CMPQ     AX, CX
	JGE      out
	MOVOU    (SI)(AX*2), X0
	MOVOU    (DI)(AX*2), X2
	PADDUSW  X2, X0
	PCMPEQW  X1, X0
	PMOVMSKB X0, DX           // two mask bits per lane, ascending
	TESTL    DX, DX
	JNZ      hit
	ADDQ     $8, AX
	JMP      scan

hit:
	BSFL    DX, DX            // lowest set bit: the smallest h wins the tie
	SHRL    $1, DX
	ADDQ    DX, AX

out:
	MOVQ    AX, ret+56(FP)
	RET

// func relaxBlocks(ca wire.Cost, row, best []wire.Cost, hop []uint16, h uint16) (done int)
TEXT ·relaxBlocks(SB), NOSPLIT, $0-96
	MOVQ    row_base+8(FP), SI
	MOVQ    best_base+32(FP), DI
	MOVQ    best_len+40(FP), CX
	MOVQ    hop_base+56(FP), BX
	ANDQ    $~7, CX
	MOVQ    CX, done+88(FP)
	MOVWLZX ca+0(FP), AX
	SPLATW(AX, X6)
	MOVWLZX h+80(FP), AX
	SPLATW(AX, X7)
	PXOR    X5, X5
	XORQ    AX, AX

step:
	CMPQ    AX, CX
	JGE     done
	MOVOU   (SI)(AX*2), X0
	MOVOU   (DI)(AX*2), X1
	PADDUSW X6, X0            // s = sat(ca + row[i])
	MOVO    X1, X2
	PSUBUSW X0, X2            // nonzero exactly where s < best[i]
	PSUBW   X2, X1            // best[i] = min(best[i], s)
	MOVOU   X1, (DI)(AX*2)
	PCMPEQW X5, X2            // all ones where best[i] stood
	MOVOU   (BX)(AX*2), X3
	PAND    X2, X3            // hop[i] where it stood,
	PANDN   X7, X2            // h where it fell
	POR     X2, X3
	MOVOU   X3, (BX)(AX*2)
	ADDQ    $8, AX
	JMP     step

done:
	RET

// The link-state unpack's status byte: byte 2 of every dword lane.
DATA statusBytes<>+0x00(SB)/8, $0x00ff000000ff0000
DATA statusBytes<>+0x08(SB)/8, $0x00ff000000ff0000
GLOBL statusBytes<>(SB), RODATA|NOPTR, $16

// COSTS4(x, t, d): four entries, one per dword lane of x as bytes [latency
// high, latency low, status, ·], become the lanes' costs sign-extended to
// int32, so that PACKSSLW narrows them to uint16 bit for bit: each word
// byte-swapped, and the lane all ones, InfCost, where the status is 0xFF
// (X12). t and d are clobbered.
#define COSTS4(x, t, d) \
	MOVO    x, d      \
	PAND    X12, d    \
	PCMPEQL X12, d    \
	MOVO    x, t      \
	PSLLW   $8, x     \
	PSRLW   $8, t     \
	POR     t, x      \
	POR     d, x      \
	PSLLL   $16, x    \
	PSRAL   $16, x

// func entryCostsBlocks(row []wire.Cost, entries []byte) (done int)
//
// Entry k of a block starts at byte 3k, so the loads at bytes 0, 3, 6 and 9
// each hold two entries at dword boundaries, k and k+4 in lanes 0 and 3; two
// rounds of interleaving gather lanes 0 into entries 0–3 and lanes 3 into
// entries 4–7. The load at byte 9 ends one byte past the block.
TEXT ·entryCostsBlocks(SB), NOSPLIT, $0-56
	MOVQ       row_base+0(FP), DI
	MOVQ       row_len+8(FP), CX
	MOVQ       entries_base+24(FP), SI
	ANDQ       $~7, CX
	MOVQ       CX, done+48(FP)
	MOVOU      statusBytes<>(SB), X12
	XORQ       AX, AX

block:
	CMPQ       AX, CX
	JGE        unpacked
	MOVOU      (SI), X0         // entries 0 and 4 in lanes 0 and 3
	MOVOU      3(SI), X1        // 1 and 5
	MOVOU      6(SI), X2        // 2 and 6
	MOVOU      9(SI), X3        // 3 and 7
	MOVO       X0, X4
	PUNPCKLLQ  X1, X0           // 0 1 · ·
	PUNPCKHLQ  X1, X4           // · · 4 5
	MOVO       X2, X5
	PUNPCKLLQ  X3, X2           // 2 3 · ·
	PUNPCKHLQ  X3, X5           // · · 6 7
	PUNPCKLQDQ X2, X0           // 0 1 2 3
	PUNPCKHQDQ X5, X4           // 4 5 6 7
	COSTS4(X0, X1, X2)
	COSTS4(X4, X5, X6)
	PACKSSLW   X4, X0
	MOVOU      X0, (DI)(AX*2)
	ADDQ       $24, SI
	ADDQ       $8, AX
	JMP        block

unpacked:
	RET

// func prefetch(row []wire.Cost)
TEXT ·prefetch(SB), NOSPLIT, $0-24
	MOVQ       row_base+0(FP), SI
	MOVQ       row_len+8(FP), CX
	LEAQ       (SI)(CX*2), CX   // one past the last entry
	ANDQ       $~63, SI         // from the start of the first entry's line

line:
	CMPQ       SI, CX
	JAE        fetched
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	JMP        line

fetched:
	RET
