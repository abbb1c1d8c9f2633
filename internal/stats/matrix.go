// Package stats implements the numerical machinery the paper's modeling
// section relies on: ordinary least squares (via normal equations and via
// Householder QR), least-median-of-squares regression (Rousseeuw 1984, the
// paper's reference [24]), descriptive statistics, and empirical CDFs for
// the prediction-error figures.
//
// Everything is dependency-free dense linear algebra sized for the paper's
// problems (design matrices with 5 columns and a few hundred to a few
// thousand rows), favoring clarity and numerical robustness over asymptotic
// tricks.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero Rows x Cols matrix. It panics on non-positive
// dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("stats: NewMatrix(%d,%d): non-positive dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, which must be non-empty
// and of equal length.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("stats: MatrixFromRows: no rows")
	}
	cols := len(rows[0])
	if cols == 0 {
		return nil, errors.New("stats: MatrixFromRows: empty row")
	}
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("stats: MatrixFromRows: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// SetAt assigns element (i,j).
func (m *Matrix) SetAt(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("stats: index (%d,%d) out of %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("stats: row %d out of %d", i, m.Rows))
	}
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns m*b. It returns an error on a dimension mismatch.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("stats: Mul dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.Data[k*b.Cols+j]
			}
		}
	}
	return out, nil
}

// MulVec returns m*x for a vector x (len == m.Cols).
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("stats: MulVec length %d, want %d", len(x), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// SolveLinear solves the square system A x = b using Gaussian elimination
// with partial pivoting. A and b are not modified. It returns an error when
// A is singular to working precision.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("stats: SolveLinear needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("stats: SolveLinear rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	w := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)
	x := make([]float64, n)
	if col := solveLinearInPlace(w, rhs, x); col >= 0 {
		return nil, fmt.Errorf("stats: SolveLinear: singular matrix at column %d", col)
	}
	return x, nil
}

// solveLinearInPlace is the allocation-free core of SolveLinear: it
// destroys a and b, writing the solution into x, and returns the column at
// which elimination found the matrix singular, or -1 on success. The
// caller guarantees a is square with len(b) == len(x) == a.Rows. Hot loops
// (the LMS trial kernel) call it on reused scratch; it allocates nothing
// on any path.
func solveLinearInPlace(a *Matrix, b []float64, x []float64) int {
	n := a.Rows
	w := a
	rhs := b
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(w.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.Data[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return col
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[pivot*n+j] = w.Data[pivot*n+j], w.Data[col*n+j]
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		pv := w.Data[col*n+col]
		for r := col + 1; r < n; r++ {
			f := w.Data[r*n+col] / pv
			if f == 0 {
				continue
			}
			w.Data[r*n+col] = 0
			for j := col + 1; j < n; j++ {
				w.Data[r*n+j] -= f * w.Data[col*n+j]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= w.Data[i*n+j] * x[j]
		}
		x[i] = s / w.Data[i*n+i]
	}
	return -1
}

// qrScratch is the working storage of a Householder QR least-squares
// solve, min ||A x - b||_2 with column checks: the triangularized copy of
// A with the Householder vectors stored below its diagonal, the rotated
// right-hand side and the solution. It grows to the largest system it has
// seen and is reused, so a caller solving many same-shape systems (the
// bootstrap's replicates) allocates once instead of per solve. The zero
// value is ready to use; a qrScratch must not be shared between
// goroutines. LeastSquares is its one user.
//
// A solve is three steps: factor triangularizes A once, recording each
// column's reflector; apply rotates one right-hand side by those
// reflectors; backSubstitute solves the triangle. Several right-hand
// sides against one design (the model's five targets) factor once and
// apply per side. Each side sees exactly the operations, in exactly the
// order, it would if it were rotated alongside the factorization, so the
// split is bit-identical to factoring once per side.
type qrScratch struct {
	m, n int
	// r is m x n. After factor its upper triangle is R and column k below
	// the diagonal holds reflector k past its head, v0[k].
	r   []float64
	v0  []float64
	vn2 []float64 // ||v_k||^2, or 0 for a column whose reflector is skipped
	v   []float64 // the current reflector while factoring
	dot []float64 // the trailing columns' v·r_j, then their factors f_j
	y   []float64
	x   []float64
}

// grow returns buf resliced to n, reallocating only when it is too short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// factor triangularizes a copy of a by Householder reflections and keeps
// the reflectors for apply. It fails on an underdetermined or
// rank-deficient design.
//
// Column k takes three passes over R. The first, down column k, sums its
// norm and copies it into the reflector v. The second, row-major over the
// trailing block, sums every trailing column's v·r_j in its own register
// accumulator, up to four columns per pass. The third, row-major too,
// subtracts f_j·v from every trailing column and stores the reflector
// below the diagonal. Every sum adds the same terms in the same row order
// as a column-at-a-time loop, so the result is bit-identical to one; only
// the update of column k below the diagonal, which the reflector
// overwrites, is skipped.
func (s *qrScratch) factor(a *Matrix) error {
	m, n := a.Rows, a.Cols
	if m < n {
		return fmt.Errorf("stats: QR: underdetermined system %dx%d", m, n)
	}
	s.m, s.n = m, n
	s.r = grow(s.r, m*n)
	s.v = grow(s.v, m)
	s.v0 = grow(s.v0, n)
	s.vn2 = grow(s.vn2, n)
	s.dot = grow(s.dot, n)
	r := s.r
	copy(r, a.Data)

	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		v := s.v[:m-k]
		var norm float64
		for i := k; i < m; i++ {
			x := r[i*n+k]
			norm += x * x
			v[i-k] = x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			return fmt.Errorf("stats: QR: rank-deficient at column %d", k)
		}
		if r[k*n+k] > 0 {
			norm = -norm
		}
		v[0] -= norm
		var vnorm2 float64
		for _, vi := range v {
			vnorm2 += vi * vi
		}
		if vnorm2 < 1e-24 {
			s.vn2[k] = 0
			continue
		}
		s.vn2[k] = vnorm2
		// dot[j] accumulates v·r_{k+j}.
		dot := s.dot[:n-k]
		for j0 := 0; j0 < len(dot); j0 += 4 {
			var d0, d1, d2, d3 float64
			c := k + j0
			switch len(dot) - j0 {
			default:
				for i := k; i < m; i++ {
					vi := v[i-k]
					x := r[i*n+c : i*n+c+4 : i*n+c+4]
					d0 += vi * x[0]
					d1 += vi * x[1]
					d2 += vi * x[2]
					d3 += vi * x[3]
				}
				dot[j0+3] = d3
				dot[j0+2] = d2
				dot[j0+1] = d1
			case 3:
				for i := k; i < m; i++ {
					vi := v[i-k]
					x := r[i*n+c : i*n+c+3 : i*n+c+3]
					d0 += vi * x[0]
					d1 += vi * x[1]
					d2 += vi * x[2]
				}
				dot[j0+2] = d2
				dot[j0+1] = d1
			case 2:
				for i := k; i < m; i++ {
					vi := v[i-k]
					x := r[i*n+c : i*n+c+2 : i*n+c+2]
					d0 += vi * x[0]
					d1 += vi * x[1]
				}
				dot[j0+1] = d1
			case 1:
				for i := k; i < m; i++ {
					d0 += v[i-k] * r[i*n+c]
				}
			}
			dot[j0] = d0
		}
		// Apply H = I - 2 v v^T / (v^T v) to R's trailing columns: dot
		// becomes each column's factor f_j.
		for j := range dot {
			dot[j] = 2 * dot[j] / vnorm2
		}
		row := r[k*n+k : k*n+n]
		for j := range row {
			row[j] -= dot[j] * v[0]
		}
		// Column k below the diagonal is dead from here on (back
		// substitution reads only the upper triangle), so it keeps the
		// reflector for apply instead of its update.
		f := dot[1:]
		for i := k + 1; i < m; i++ {
			vi := v[i-k]
			r[i*n+k] = vi
			tail := r[i*n+k+1 : i*n+n]
			tail = tail[:len(f)]
			for j, fj := range f {
				tail[j] -= fj * vi
			}
		}
		s.v0[k] = v[0]
	}
	return nil
}

// apply rotates a copy of b by the reflectors of the last factor, in
// factorization order, and returns it (aliasing s).
func (s *qrScratch) apply(b []float64) ([]float64, error) {
	m, n, r := s.m, s.n, s.r
	if len(b) != m {
		return nil, fmt.Errorf("stats: QR rhs length %d, want %d", len(b), m)
	}
	s.y = grow(s.y, m)
	y := s.y
	copy(y, b)
	for k := 0; k < n; k++ {
		vnorm2 := s.vn2[k]
		if vnorm2 == 0 {
			continue
		}
		// The same sums, term for term, as rotating y alongside the
		// factorization: the head v0[k] first, then the stored tail.
		var dot float64
		dot += s.v0[k] * y[k]
		for i := k + 1; i < m; i++ {
			dot += r[i*n+k] * y[i]
		}
		f := 2 * dot / vnorm2
		y[k] -= f * s.v0[k]
		for i := k + 1; i < m; i++ {
			y[i] -= f * r[i*n+k]
		}
	}
	return y, nil
}

// backSubstitute solves the upper-triangular leading n x n block of the
// last factor against the rotated right-hand side y. The solution aliases
// s.
func (s *qrScratch) backSubstitute(y []float64) ([]float64, error) {
	n, r := s.n, s.r
	s.x = grow(s.x, n)
	x := s.x
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for j := i + 1; j < n; j++ {
			sum -= r[i*n+j] * x[j]
		}
		d := r[i*n+i]
		if math.Abs(d) < 1e-12 {
			return nil, fmt.Errorf("stats: QR: zero pivot at %d", i)
		}
		x[i] = sum / d
	}
	return x, nil
}
