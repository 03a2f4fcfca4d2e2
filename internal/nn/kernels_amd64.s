//go:build !race

#include "textflag.h"

// Each kernel keeps four elements of one Go loop in the four lanes of a YMM
// register and applies, lane by lane, the operations of kernels.go in the
// same order; a scalar tail (the VEX *SD forms) finishes a length that is
// not a multiple of four. Only VEX-encoded AVX is used: no FMA, whose single
// rounding would differ from Go's separate multiply and add, and no
// AVX-512. Go's own float code is legacy SSE, so every kernel clears the
// upper YMM halves (VZEROUPPER) before it returns.

// func cpuidAVX() bool
//
// AVX is usable when CPUID.1:ECX reports both AVX (bit 28) and OSXSAVE
// (bit 27), and the OS has enabled the XMM and YMM state in XCR0 (bits 1–2).
TEXT ·cpuidAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func forwardTileAVX(out *[16]float64, b *[4]float64, w, x *[4][]float64, floor float64)
//
// Yk holds neuron k's sums for samples 0–3. Each starts at the neuron's
// bias and adds w[k][i]·x[j][i] for ascending i. The clamp is VMAXPD with
// floor as first source, (floor > sum) ? floor : sum, the Go twin's
// comparison.
TEXT ·forwardTileAVX(SB), NOSPLIT, $0-40
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
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ DX, DX
	CMPQ DX, CX
	JGE  tilestore

tileloop:
	VMOVSD       (SI)(DX*8), X4
	VMOVHPD      (DI)(DX*8), X4, X4
	VMOVSD       (R12)(DX*8), X5
	VMOVHPD      (R13)(DX*8), X5, X5
	VINSERTF128  $1, X5, Y4, Y4   // x[0][i], x[1][i], x[2][i], x[3][i]
	VBROADCASTSD (R8)(DX*8), Y6   // w[0][i]
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y0, Y0
	VBROADCASTSD (R9)(DX*8), Y7   // w[1][i]
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y1, Y1
	VBROADCASTSD (R10)(DX*8), Y8  // w[2][i]
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y2, Y2
	VBROADCASTSD (R11)(DX*8), Y9  // w[3][i]
	VMULPD       Y4, Y9, Y9
	VADDPD       Y9, Y3, Y3
	INCQ DX
	CMPQ DX, CX
	JLT  tileloop

tilestore:
	VBROADCASTSD floor+32(FP), Y4
	MOVQ         out+0(FP), AX
	VMAXPD       Y0, Y4, Y0
	VMOVUPD      Y0, 0(AX)
	VMAXPD       Y1, Y4, Y1
	VMOVUPD      Y1, 32(AX)
	VMAXPD       Y2, Y4, Y2
	VMOVUPD      Y2, 64(AX)
	VMAXPD       Y3, Y4, Y3
	VMOVUPD      Y3, 96(AX)
	VZEROUPPER
	RET

// func fold4AVX(dst []float64, f *[4]float64, v *[4][]float64)
//
// Y0–Y3 hold f[0]–f[3] in every lane; each pass adds the four products to
// four dst elements in order k = 0…3.
TEXT ·fold4AVX(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ f+24(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ v+32(FP), AX
	MOVQ 0(AX), R8             // v[0]
	MOVQ 24(AX), R9            // v[1]
	MOVQ 48(AX), R10           // v[2]
	MOVQ 72(AX), R11           // v[3]
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-4, BX               // elements handled four at a time
	JEQ  foldtail

foldquads:
	VMOVUPD (DI)(DX*8), Y4
	VMULPD  (R8)(DX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(DX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(DX*8), Y2, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R11)(DX*8), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, BX
	JLT     foldquads

foldtail:
	CMPQ   DX, CX
	JGE    folddone
	VMOVSD (DI)(DX*8), X4
	VMULSD (R8)(DX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(DX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(DX*8), X2, X7
	VADDSD X7, X4, X4
	VMULSD (R11)(DX*8), X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(DX*8)
	INCQ   DX
	JMP    foldtail

folddone:
	VZEROUPPER
	RET

// func adamUpdateAVX(w, m, v, sums []float64, c *adamCoef)
//
// Y0–Y8 hold adamCoef's fields in every lane, in declaration order: beta1,
// decay1, beta2, decay2, eps, lr, bs, bc1, bc2; Y15 is zero. Per lane, as
// in Go:
//	g  = sums/bs
//	m' = beta1·m + decay1·g
//	v' = beta2·v + (decay2·g)·g
//	w' = w − (lr·(m'/bc1)) / (sqrt(v'/bc2) + eps)
//	sums = 0
TEXT ·adamUpdateAVX(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ m_base+24(FP), R8
	MOVQ v_base+48(FP), R9
	MOVQ sums_base+72(FP), R10
	MOVQ c+96(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	VBROADCASTSD 64(AX), Y8
	VXORPD       Y15, Y15, Y15
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-4, BX               // parameters handled four at a time
	JEQ  adamtail

adamquads:
	VMOVUPD (R10)(DX*8), Y9
	VDIVPD  Y6, Y9, Y9         // g
	VMULPD  (R8)(DX*8), Y0, Y10
	VMULPD  Y9, Y1, Y11
	VADDPD  Y11, Y10, Y10      // m'
	VMOVUPD Y10, (R8)(DX*8)
	VMULPD  (R9)(DX*8), Y2, Y12
	VMULPD  Y9, Y3, Y13
	VMULPD  Y9, Y13, Y13
	VADDPD  Y13, Y12, Y12      // v'
	VMOVUPD Y12, (R9)(DX*8)
	VDIVPD  Y7, Y10, Y10
	VMULPD  Y10, Y5, Y10       // lr·(m'/bc1)
	VDIVPD  Y8, Y12, Y12
	VSQRTPD Y12, Y12
	VADDPD  Y4, Y12, Y12       // sqrt(v'/bc2) + eps
	VDIVPD  Y12, Y10, Y10
	VMOVUPD (DI)(DX*8), Y14
	VSUBPD  Y10, Y14, Y14
	VMOVUPD Y14, (DI)(DX*8)    // w'
	VMOVUPD Y15, (R10)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, BX
	JLT     adamquads

adamtail:
	CMPQ    DX, CX
	JGE     adamdone
	VMOVSD  (R10)(DX*8), X9
	VDIVSD  X6, X9, X9
	VMULSD  (R8)(DX*8), X0, X10
	VMULSD  X9, X1, X11
	VADDSD  X11, X10, X10
	VMOVSD  X10, (R8)(DX*8)
	VMULSD  (R9)(DX*8), X2, X12
	VMULSD  X9, X3, X13
	VMULSD  X9, X13, X13
	VADDSD  X13, X12, X12
	VMOVSD  X12, (R9)(DX*8)
	VDIVSD  X7, X10, X10
	VMULSD  X10, X5, X10
	VDIVSD  X8, X12, X12
	VSQRTSD X12, X12, X12
	VADDSD  X4, X12, X12
	VDIVSD  X12, X10, X10
	VMOVSD  (DI)(DX*8), X14
	VSUBSD  X10, X14, X14
	VMOVSD  X14, (DI)(DX*8)
	MOVQ    $0, (R10)(DX*8)
	INCQ    DX
	JMP     adamtail

adamdone:
	VZEROUPPER
	RET
