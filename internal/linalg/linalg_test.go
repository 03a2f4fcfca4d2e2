package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 3)
	m.Set(1, 1, 5)
	if m.At(0, 2) != 3 || m.At(1, 1) != 5 {
		t.Fatal("Set/At mismatch")
	}
	v := m.MulVec([]float64{1, 1, 1})
	if v[0] != 4 || v[1] != 5 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0,1) should panic")
		}
	}()
	NewMatrix(0, 1)
}

func TestMulVecDimensionPanic(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong length should panic")
		}
	}()
	m.MulVec([]float64{1})
}

func TestCholeskySolveIdentity(t *testing.T) {
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{4, 5, 6}
	x, err := CholeskySolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almost(x[i], b[i], 1e-12) {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestCholeskySolveKnownSystem(t *testing.T) {
	// A = [[4, 2], [2, 3]], b = [10, 8] → x = [7/4, 3/2].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	x, err := CholeskySolve(a, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1.75, 1e-12) || !almost(x[1], 1.5, 1e-12) {
		t.Fatalf("x = %v, want [1.75 1.5]", x)
	}
}

func TestCholeskySolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1) // rank 1
	if _, err := CholeskySolve(a, []float64{1, 1}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestCholeskySolveShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := CholeskySolve(a, []float64{1, 2}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	sq := NewMatrix(2, 2)
	sq.Set(0, 0, 1)
	sq.Set(1, 1, 1)
	if _, err := CholeskySolve(sq, []float64{1}); err == nil {
		t.Fatal("rhs length mismatch accepted")
	}
}

func TestOLSRecoversCoefficients(t *testing.T) {
	// y = 3 + 2·x1 - 0.5·x2 with mild noise.
	rng := rand.New(rand.NewSource(1))
	n := 200
	feats := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1 := rng.Float64() * 10
		x2 := rng.Float64() * 4
		feats[i] = []float64{x1, x2}
		y[i] = 3 + 2*x1 - 0.5*x2 + rng.NormFloat64()*0.01
	}
	x, err := DesignMatrix(feats)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(beta[0], 3, 0.02) || !almost(beta[1], 2, 0.02) || !almost(beta[2], -0.5, 0.02) {
		t.Fatalf("beta = %v, want ≈[3 2 -0.5]", beta)
	}
}

func TestOLSExactFit(t *testing.T) {
	feats := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 7, 9} // y = 3 + 2x
	x, _ := DesignMatrix(feats)
	beta, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(beta[0], 3, 1e-9) || !almost(beta[1], 2, 1e-9) {
		t.Fatalf("beta = %v", beta)
	}
}

func TestOLSDegenerateDesignUsesRidge(t *testing.T) {
	// Two identical feature columns: XᵀX singular; ridge must kick in and
	// return finite coefficients that still predict well.
	feats := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{2, 4, 6, 8}
	x, _ := DesignMatrix(feats)
	beta, err := OLS(x, y)
	if err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	for i := range feats {
		pred := beta[0] + beta[1]*feats[i][0] + beta[2]*feats[i][1]
		if !almost(pred, y[i], 1e-3) {
			t.Fatalf("sample %d predicted %v, want %v (beta=%v)", i, pred, y[i], beta)
		}
	}
}

func TestOLSUnderdetermined(t *testing.T) {
	feats := [][]float64{{1, 2, 3}}
	y := []float64{1}
	x, _ := DesignMatrix(feats)
	if _, err := OLS(x, y); err == nil {
		t.Fatal("underdetermined system accepted")
	}
}

func TestOLSSampleMismatch(t *testing.T) {
	x, _ := DesignMatrix([][]float64{{1}, {2}})
	if _, err := OLS(x, []float64{1}); err == nil {
		t.Fatal("sample count mismatch accepted")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, 2, 1e-12) || !almost(b, 1, 1e-12) {
		t.Fatalf("fit = %v·x + %v", a, b)
	}
}

func TestLinearFitConstantX(t *testing.T) {
	a, b, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || !almost(b, 2, 1e-12) {
		t.Fatalf("constant-x fit = %v·x + %v, want 0·x + 2", a, b)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestDesignMatrixErrors(t *testing.T) {
	if _, err := DesignMatrix(nil); err == nil {
		t.Fatal("empty design accepted")
	}
	if _, err := DesignMatrix([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged design accepted")
	}
}

// Property: OLS residuals are orthogonal to every design column (the
// normal-equation optimality condition).
func TestOLSResidualOrthogonality(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		k := 1 + rng.Intn(3)
		feats := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			feats[i] = make([]float64, k)
			for j := range feats[i] {
				feats[i][j] = rng.NormFloat64() * 5
			}
			y[i] = rng.NormFloat64() * 10
		}
		x, err := DesignMatrix(feats)
		if err != nil {
			return false
		}
		beta, err := OLS(x, y)
		if err != nil {
			return false
		}
		pred := x.MulVec(beta)
		scale := 0.0
		for j := 0; j <= k; j++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += x.At(i, j) * (y[i] - pred[i])
				scale += math.Abs(x.At(i, j))
			}
			if math.Abs(dot) > 1e-6*(scale+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: LinearFit agrees with OLS on a single regressor.
func TestLinearFitMatchesOLS(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		feats := make([][]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = 4*xs[i] - 2 + rng.NormFloat64()
			feats[i] = []float64{xs[i]}
		}
		a, b, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		dm, _ := DesignMatrix(feats)
		beta, err := OLS(dm, ys)
		if err != nil {
			return false
		}
		return almost(a, beta[1], 1e-6) && almost(b, beta[0], 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOLSThreeFeatures(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	feats := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		feats[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = feats[i][0] + 2*feats[i][1] - feats[i][2]
	}
	x, _ := DesignMatrix(feats)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OLS(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
