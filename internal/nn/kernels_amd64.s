//go:build !race

#include "textflag.h"

// Each kernel keeps two elements of one Go loop in the two lanes of an XMM
// register and applies, lane by lane, the operations of kernels.go in the
// same order; a scalar tail (the *SD forms) finishes an odd length.
// Broadcast = MOVSD then UNPCKLPD of a register with itself.

// func forwardTile(out *[16]float64, b *[4]float64, w, x *[4][]float64, floor float64)
//
// X0/X1 hold neuron 0's sums for samples 0 and 1 / 2 and 3, X2/X3 neuron
// 1's, X4/X5 neuron 2's, X6/X7 neuron 3's. Each starts at the neuron's bias
// and adds w[k][i]·x[j][i] for ascending i. The clamp is MAXPD with floor as
// destination, (floor > sum) ? floor : sum, the Go twin's comparison.
TEXT ·forwardTile(SB), NOSPLIT, $0-40
	MOVQ w+16(FP), AX
	MOVQ 0(AX), R8             // w[0]
	MOVQ 8(AX), CX             // n = len(w[0])
	MOVQ 24(AX), R9            // w[1]
	MOVQ 48(AX), R10           // w[2]
	MOVQ 72(AX), R11           // w[3]
	MOVQ x+24(FP), AX
	MOVQ 0(AX), SI             // x[0]
	MOVQ 24(AX), DI            // x[1]
	MOVQ 48(AX), R12           // x[2]
	MOVQ 72(AX), R13           // x[3]
	MOVQ b+8(FP), AX
	MOVSD    0(AX), X0
	UNPCKLPD X0, X0
	MOVAPD   X0, X1
	MOVSD    8(AX), X2
	UNPCKLPD X2, X2
	MOVAPD   X2, X3
	MOVSD    16(AX), X4
	UNPCKLPD X4, X4
	MOVAPD   X4, X5
	MOVSD    24(AX), X6
	UNPCKLPD X6, X6
	MOVAPD   X6, X7
	XORQ DX, DX
	CMPQ DX, CX
	JGE  tilestore

tileloop:
	MOVSD    (SI)(DX*8), X8    // x[0][i], x[1][i]
	MOVHPD   (DI)(DX*8), X8
	MOVSD    (R12)(DX*8), X9   // x[2][i], x[3][i]
	MOVHPD   (R13)(DX*8), X9
	MOVSD    (R8)(DX*8), X10   // w[0][i]
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X0
	ADDPD    X11, X1
	MOVSD    (R9)(DX*8), X12   // w[1][i]
	UNPCKLPD X12, X12
	MOVAPD   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X2
	ADDPD    X13, X3
	MOVSD    (R10)(DX*8), X10  // w[2][i]
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X4
	ADDPD    X11, X5
	MOVSD    (R11)(DX*8), X12  // w[3][i]
	UNPCKLPD X12, X12
	MOVAPD   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X6
	ADDPD    X13, X7
	INCQ DX
	CMPQ DX, CX
	JLT  tileloop

tilestore:
	MOVSD    floor+32(FP), X8
	UNPCKLPD X8, X8
	MOVQ     out+0(FP), AX
	MOVAPD   X8, X9
	MAXPD    X0, X9
	MOVUPD   X9, 0(AX)
	MOVAPD   X8, X9
	MAXPD    X1, X9
	MOVUPD   X9, 16(AX)
	MOVAPD   X8, X9
	MAXPD    X2, X9
	MOVUPD   X9, 32(AX)
	MOVAPD   X8, X9
	MAXPD    X3, X9
	MOVUPD   X9, 48(AX)
	MOVAPD   X8, X9
	MAXPD    X4, X9
	MOVUPD   X9, 64(AX)
	MOVAPD   X8, X9
	MAXPD    X5, X9
	MOVUPD   X9, 80(AX)
	MOVAPD   X8, X9
	MAXPD    X6, X9
	MOVUPD   X9, 96(AX)
	MOVAPD   X8, X9
	MAXPD    X7, X9
	MOVUPD   X9, 112(AX)
	RET

// func fold4(dst []float64, f *[4]float64, v *[4][]float64)
//
// X0–X3 hold f[0]–f[3] in both lanes; each pass adds the four products to a
// pair of dst elements in order k = 0…3.
TEXT ·fold4(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ f+24(FP), AX
	MOVSD    0(AX), X0
	UNPCKLPD X0, X0
	MOVSD    8(AX), X1
	UNPCKLPD X1, X1
	MOVSD    16(AX), X2
	UNPCKLPD X2, X2
	MOVSD    24(AX), X3
	UNPCKLPD X3, X3
	MOVQ v+32(FP), AX
	MOVQ 0(AX), R8             // v[0]
	MOVQ 24(AX), R9            // v[1]
	MOVQ 48(AX), R10           // v[2]
	MOVQ 72(AX), R11           // v[3]
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-2, BX               // elements handled in pairs
	JEQ  foldtail

foldpairs:
	MOVUPD (DI)(DX*8), X4
	MOVUPD (R8)(DX*8), X5
	MULPD  X0, X5
	ADDPD  X5, X4
	MOVUPD (R9)(DX*8), X6
	MULPD  X1, X6
	ADDPD  X6, X4
	MOVUPD (R10)(DX*8), X7
	MULPD  X2, X7
	ADDPD  X7, X4
	MOVUPD (R11)(DX*8), X8
	MULPD  X3, X8
	ADDPD  X8, X4
	MOVUPD X4, (DI)(DX*8)
	ADDQ   $2, DX
	CMPQ   DX, BX
	JLT    foldpairs

foldtail:
	CMPQ  DX, CX
	JGE   folddone
	MOVSD (DI)(DX*8), X4
	MOVSD (R8)(DX*8), X5
	MULSD X0, X5
	ADDSD X5, X4
	MOVSD (R9)(DX*8), X6
	MULSD X1, X6
	ADDSD X6, X4
	MOVSD (R10)(DX*8), X7
	MULSD X2, X7
	ADDSD X7, X4
	MOVSD (R11)(DX*8), X8
	MULSD X3, X8
	ADDSD X8, X4
	MOVSD X4, (DI)(DX*8)

folddone:
	RET

// func adamUpdate(w, m, v, sums []float64, c *adamCoef)
//
// X0–X8 hold adamCoef's fields in both lanes, in declaration order: beta1,
// decay1, beta2, decay2, eps, lr, bs, bc1, bc2. Per pair, as in Go:
//	g  = sums/bs
//	m' = beta1·m + decay1·g
//	v' = beta2·v + (decay2·g)·g
//	w' = w − (lr·(m'/bc1)) / (sqrt(v'/bc2) + eps)
//	sums = 0
TEXT ·adamUpdate(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ m_base+24(FP), R8
	MOVQ v_base+48(FP), R9
	MOVQ sums_base+72(FP), R10
	MOVQ c+96(FP), AX
	MOVSD    0(AX), X0
	UNPCKLPD X0, X0
	MOVSD    8(AX), X1
	UNPCKLPD X1, X1
	MOVSD    16(AX), X2
	UNPCKLPD X2, X2
	MOVSD    24(AX), X3
	UNPCKLPD X3, X3
	MOVSD    32(AX), X4
	UNPCKLPD X4, X4
	MOVSD    40(AX), X5
	UNPCKLPD X5, X5
	MOVSD    48(AX), X6
	UNPCKLPD X6, X6
	MOVSD    56(AX), X7
	UNPCKLPD X7, X7
	MOVSD    64(AX), X8
	UNPCKLPD X8, X8
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-2, BX               // parameters handled in pairs
	JEQ  adamtail

adampairs:
	MOVUPD (R10)(DX*8), X9
	DIVPD  X6, X9              // g
	MOVUPD (R8)(DX*8), X10
	MULPD  X0, X10
	MOVAPD X1, X11
	MULPD  X9, X11
	ADDPD  X11, X10            // m'
	MOVUPD X10, (R8)(DX*8)
	MOVUPD (R9)(DX*8), X12
	MULPD  X2, X12
	MOVAPD X3, X13
	MULPD  X9, X13
	MULPD  X9, X13
	ADDPD  X13, X12            // v'
	MOVUPD X12, (R9)(DX*8)
	DIVPD  X7, X10
	MULPD  X5, X10             // lr·(m'/bc1)
	DIVPD  X8, X12
	SQRTPD X12, X12
	ADDPD  X4, X12             // sqrt(v'/bc2) + eps
	DIVPD  X12, X10
	MOVUPD (DI)(DX*8), X14
	SUBPD  X10, X14
	MOVUPD X14, (DI)(DX*8)     // w'
	MOVQ   $0, (R10)(DX*8)
	MOVQ   $0, 8(R10)(DX*8)
	ADDQ   $2, DX
	CMPQ   DX, BX
	JLT    adampairs

adamtail:
	CMPQ   DX, CX
	JGE    adamdone
	MOVSD  (R10)(DX*8), X9
	DIVSD  X6, X9
	MOVSD  (R8)(DX*8), X10
	MULSD  X0, X10
	MOVAPD X1, X11
	MULSD  X9, X11
	ADDSD  X11, X10
	MOVSD  X10, (R8)(DX*8)
	MOVSD  (R9)(DX*8), X12
	MULSD  X2, X12
	MOVAPD X3, X13
	MULSD  X9, X13
	MULSD  X9, X13
	ADDSD  X13, X12
	MOVSD  X12, (R9)(DX*8)
	DIVSD  X7, X10
	MULSD  X5, X10
	DIVSD  X8, X12
	SQRTSD X12, X12
	ADDSD  X4, X12
	DIVSD  X12, X10
	MOVSD  (DI)(DX*8), X14
	SUBSD  X10, X14
	MOVSD  X14, (DI)(DX*8)
	MOVQ   $0, (R10)(DX*8)

adamdone:
	RET
