package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The trainer's kernels against their Go twins (kernels.go), on every
// dispatch forEachKernelPath can reach: on amd64 the AVX assembly
// (kernels_amd64.s) where the host has AVX, and the Go twins a host without
// it runs; elsewhere, and under -race, the kernels are the twins themselves
// and these tests check only the harness.

// sameFloat reports whether a kernel result matches the Go loop's: the same
// bits, or NaN on both sides (which NaN comes out of two NaN operands
// depends on operand order, which IEEE leaves open).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// kernelCase is one set of operands for all three kernels, n elements wide.
type kernelCase struct {
	n     int
	rows  [4][]float64 // forwardTile's weight rows
	xs    [4][]float64 // forwardTile's input rows
	bias  [4]float64
	floor float64
	dst   []float64 // fold4's accumulator
	f     [4]float64
	vecs  [4][]float64
	w     []float64 // adamUpdate's operands
	m     []float64
	v     []float64
	sums  []float64
	coef  adamCoef
}

// newKernelCase draws a case from next; repeat makes forwardTile's last
// neuron and sample copies of the ones before them, as a padded block is.
func newKernelCase(n int, repeat bool, next func() float64) *kernelCase {
	vec := func() []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = next()
		}
		return s
	}
	c := &kernelCase{n: n, floor: next(), dst: vec(), w: vec(), m: vec(), v: vec(), sums: vec()}
	for k := range 4 {
		c.rows[k], c.xs[k], c.vecs[k] = vec(), vec(), vec()
		c.bias[k], c.f[k] = next(), next()
	}
	if repeat {
		c.rows[3], c.xs[3], c.bias[3] = c.rows[2], c.xs[2], c.bias[2]
	}
	c.coef = adamCoef{next(), next(), next(), next(), next(), next(), next(), next(), next()}
	return c
}

// check runs every kernel, on each dispatch path, and its Go twin on copies
// of c's operands and fails t on the first result that differs.
func (c *kernelCase) check(t *testing.T) {
	t.Helper()
	forEachKernelPath(t, func(path string) {
		t.Helper()
		c.checkPath(t, path)
	})
}

func (c *kernelCase) checkPath(t *testing.T, path string) {
	t.Helper()
	compare := func(kernel string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s, n=%d: %s[%d] = %v (%#x), Go loop %v (%#x)", path, c.n, kernel, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}

	var got, want [16]float64
	forwardTile(&got, &c.bias, &c.rows, &c.xs, c.floor)
	forwardTileGo(&want, &c.bias, &c.rows, &c.xs, c.floor)
	compare("forwardTile", got[:], want[:])

	dg, dw := clone(c.dst), clone(c.dst)
	fold4(dg, &c.f, &c.vecs)
	fold4Go(dw, &c.f, &c.vecs)
	compare("fold4", dg, dw)

	wg, mg, vg, sg := clone(c.w), clone(c.m), clone(c.v), clone(c.sums)
	ww, mw, vw, sw := clone(c.w), clone(c.m), clone(c.v), clone(c.sums)
	adamUpdate(wg, mg, vg, sg, &c.coef)
	adamUpdateGo(ww, mw, vw, sw, &c.coef)
	compare("adam w", wg, ww)
	compare("adam m", mg, mw)
	compare("adam v", vg, vw)
	compare("adam sums", sg, sw)
}

func clone(s []float64) []float64 { return append([]float64(nil), s...) }

// edgeValue draws mostly ordinary floats with ±0, subnormals and magnitudes
// from 2⁻¹⁰⁷⁴ to 2¹⁰²³ mixed in, so sums underflow, overflow and cancel.
func edgeValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(uint64(rng.Int63n(1<<52)+1))
	case 2:
		return sign * math.Ldexp(1+rng.Float64(), rng.Intn(2098)-1074)
	default:
		return rng.NormFloat64()
	}
}

// TestTrainerKernelsMatchGo runs each kernel against its Go twin at every
// length 0–300 — empty, odd tails, pairs — with a padded block's repeated
// rows on every third length, once on values a training step meets (Adam's
// coefficients as Fit sets them, non-negative second moments) and once on
// edge values. Finite results must agree bit for bit.
func TestTrainerKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		plain := newKernelCase(n, n%3 == 0, rng.NormFloat64)
		plain.floor = float64(n%2) * math.Inf(-1) // ReLU, or no clamp
		for i := range plain.v {
			plain.v[i] = math.Abs(plain.v[i])
		}
		bs, step := float64(1+rng.Intn(32)), float64(1+rng.Intn(2000))
		plain.coef = adamCoef{beta1, 1 - beta1, beta2, 1 - beta2, eps, 1e-3, bs,
			1 - math.Pow(beta1, step), 1 - math.Pow(beta2, step)}
		plain.check(t)

		newKernelCase(n, n%3 == 1, func() float64 { return edgeValue(rng) }).check(t)
	}
}

// FuzzTrainerKernels holds the kernels to their Go twins on arbitrary
// operands: the first byte picks the length, the rest, read eight bytes at
// a time as float64 bit patterns and reused cyclically, fill every operand.
func FuzzTrainerKernels(f *testing.F) {
	bits := func(n byte, vs ...float64) []byte {
		b := []byte{n}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(bits(0, 1))
	f.Add(bits(1, 0.5, -2, 3))
	f.Add(bits(7, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64))
	f.Add(bits(33, math.Inf(1), math.NaN(), 1e-300, 1e300, -0.75))
	f.Add(bits(128, 0.9, 0.1, 0.999, 0.001, 1e-8, 1e-3, 32, 0.1, 0.001))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		n, raw := int(data[0]), data[1:len(data)-(len(data)-1)%8]
		i := 0
		next := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			i = (i + 8) % len(raw)
			return v
		}
		newKernelCase(n, n%2 == 1, next).check(t)
	})
}

// TestCPUFeatureDetection holds cpuidAVX to the kernel's own report: on
// linux/amd64 it must find AVX exactly when /proc/cpuinfo lists the avx
// flag, which Linux clears when it does not save the YMM state.
func TestCPUFeatureDetection(t *testing.T) {
	detected, ok := hostAVX()
	if !ok || runtime.GOOS != "linux" {
		t.Skip("CPUID detection is built only for amd64 without -race; /proc/cpuinfo only on linux")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, found := strings.Cut(line, ":")
		if !found || strings.TrimSpace(name) != "flags" {
			continue
		}
		if listed := slices.Contains(strings.Fields(flags), "avx"); listed != detected {
			t.Fatalf("cpuidAVX() = %v, /proc/cpuinfo lists avx: %v", detected, listed)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
