// Package linalg provides the small dense linear algebra ReTail's linear
// regression needs: symmetric positive-definite solves via Cholesky
// factorization and an ordinary-least-squares fit with a ridge fallback for
// degenerate designs. Feature counts in ReTail are tiny (1–3 features plus
// an intercept), so a simple dense implementation is both sufficient and
// fast.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix is singular (or not positive
// definite) to working precision.
var ErrSingular = errors.New("linalg: matrix is singular or not positive definite")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// CholeskySolve solves A·x = b for symmetric positive-definite A, in place
// of a general solver. A is not modified.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, errors.New("linalg: CholeskySolve needs a square matrix")
	}
	if len(b) != n {
		return nil, errors.New("linalg: CholeskySolve rhs dimension mismatch")
	}
	// Factor A = L·Lᵀ.
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, ErrSingular
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
		}
		y[i] = s / l[i*n+i]
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x, nil
}

// OLS fits y ≈ X·β by ordinary least squares using the normal equations
// XᵀX·β = Xᵀy. X is the design matrix (one row per sample; include a
// column of ones for an intercept). When XᵀX is singular — e.g. duplicate
// or constant feature columns — a small ridge term λ·I is added so the fit
// degrades gracefully instead of failing, matching ReTail's requirement
// that online retraining never wedges the power manager.
func OLS(x *Matrix, y []float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, errors.New("linalg: OLS sample count mismatch")
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("linalg: OLS underdetermined: %d samples for %d coefficients", x.Rows, x.Cols)
	}
	p := x.Cols
	xtx := NewMatrix(p, p)
	xty := make([]float64, p)
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*p : (i+1)*p]
		for a := 0; a < p; a++ {
			xty[a] += row[a] * y[i]
			for b := a; b < p; b++ {
				xtx.Data[a*p+b] += row[a] * row[b]
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := 0; b < a; b++ {
			xtx.Data[a*p+b] = xtx.Data[b*p+a]
		}
	}
	beta, err := CholeskySolve(xtx, xty)
	if err == nil {
		return beta, nil
	}
	// Ridge fallback: λ scaled to the trace so it is dimensionless.
	trace := 0.0
	for a := 0; a < p; a++ {
		trace += xtx.At(a, a)
	}
	lambda := 1e-8 * (trace/float64(p) + 1)
	for a := 0; a < p; a++ {
		xtx.Data[a*p+a] += lambda
	}
	beta, err = CholeskySolve(xtx, xty)
	if err != nil {
		return nil, ErrSingular
	}
	return beta, nil
}

// LinearFit fits y ≈ a·x + b for a single regressor and returns (a, b).
// It is the 2D special case the paper's scatter-plot fit lines use.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("linalg: LinearFit length mismatch")
	}
	if len(xs) < 2 {
		return 0, 0, errors.New("linalg: LinearFit needs at least 2 samples")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		// Constant x: best fit is the horizontal line through the mean.
		return 0, sy / n, nil
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// DesignMatrix builds a design matrix from per-sample feature vectors,
// prepending an intercept column of ones.
func DesignMatrix(features [][]float64) (*Matrix, error) {
	if len(features) == 0 {
		return nil, errors.New("linalg: no samples")
	}
	cols := len(features[0]) + 1
	m := NewMatrix(len(features), cols)
	for i, f := range features {
		if len(f) != cols-1 {
			return nil, fmt.Errorf("linalg: sample %d has %d features, want %d", i, len(f), cols-1)
		}
		m.Set(i, 0, 1)
		for j, v := range f {
			m.Set(i, j+1, v)
		}
	}
	return m, nil
}
