package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMatrix(dims[0], dims[1])
		}()
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	if _, err := MatrixFromRows(nil); err == nil {
		t.Error("MatrixFromRows(nil) should fail")
	}
	if _, err := MatrixFromRows([][]float64{{}}); err == nil {
		t.Error("MatrixFromRows empty row should fail")
	}
	if _, err := MatrixFromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestAtSetAtBounds(t *testing.T) {
	m := NewMatrix(2, 2)
	m.SetAt(1, 1, 7)
	if m.At(1, 1) != 7 {
		t.Errorf("At after SetAt = %v, want 7", m.At(1, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestRowAndClone(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	if !reflect.DeepEqual(r, []float64{3, 4}) {
		t.Errorf("Row(1) = %v, want [3 4]", r)
	}
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Error("Row must return a copy")
	}
	c := m.Clone()
	c.SetAt(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone must be deep")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims = %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v", tr.Data)
	}
}

func TestMul(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	if !reflect.DeepEqual(p.Data, want) {
		t.Errorf("Mul = %v, want %v", p.Data, want)
	}
	c := NewMatrix(3, 3)
	if _, err := a.Mul(c); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	y, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y, []float64{3, 7}) {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLinear(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("singular system should fail")
	}
}

func TestSolveLinearErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("non-square should fail")
	}
	b := NewMatrix(2, 2)
	b.SetAt(0, 0, 1)
	b.SetAt(1, 1, 1)
	if _, err := SolveLinear(b, []float64{1}); err == nil {
		t.Error("rhs length mismatch should fail")
	}
}

func TestSolveLinearDoesNotMutateInputs(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	orig := a.Clone()
	origB := []float64{1, 2}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Data, orig.Data) {
		t.Error("SolveLinear mutated the matrix")
	}
	if !reflect.DeepEqual(b, origB) {
		t.Error("SolveLinear mutated the rhs")
	}
}

// qrSolve runs the three QR steps over a fresh scratch.
func qrSolve(a *Matrix, b []float64) ([]float64, error) {
	var s qrScratch
	if err := s.factor(a); err != nil {
		return nil, err
	}
	y, err := s.apply(b)
	if err != nil {
		return nil, err
	}
	return s.backSubstitute(y)
}

func TestQRSolveOverdetermined(t *testing.T) {
	// y = 2 + 3x fitted on exact data must recover coefficients.
	x := NewMatrix(5, 2)
	y := make([]float64, 5)
	for i := 0; i < 5; i++ {
		x.SetAt(i, 0, 1)
		x.SetAt(i, 1, float64(i))
		y[i] = 2 + 3*float64(i)
	}
	beta, err := qrSolve(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 1e-9 || math.Abs(beta[1]-3) > 1e-9 {
		t.Errorf("beta = %v, want [2 3]", beta)
	}
}

func TestQRSolveErrors(t *testing.T) {
	x := NewMatrix(2, 3)
	if _, err := qrSolve(x, []float64{1, 2}); err == nil {
		t.Error("underdetermined should fail")
	}
	y := NewMatrix(3, 2)
	if _, err := qrSolve(y, []float64{1}); err == nil {
		t.Error("rhs mismatch should fail")
	}
	z := NewMatrix(3, 2) // zero column -> rank deficient
	if _, err := qrSolve(z, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient should fail")
	}
}

// Property: for random well-conditioned systems, SolveLinear returns x with
// A x = b to high accuracy.
func TestQuickSolveLinearResidual(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 2 + r.Intn(4)
			a := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.SetAt(i, j, r.NormFloat64())
				}
				// Diagonal dominance guarantees invertibility.
				a.SetAt(i, i, a.At(i, i)+float64(n)+1)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = r.NormFloat64()
			}
			args[0] = reflect.ValueOf(a)
			args[1] = reflect.ValueOf(b)
		},
	}
	f := func(a *Matrix, b []float64) bool {
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(args []reflect.Value, r *rand.Rand) {
			m := NewMatrix(1+r.Intn(5), 1+r.Intn(5))
			for i := range m.Data {
				m.Data[i] = r.NormFloat64()
			}
			args[0] = reflect.ValueOf(m)
		},
	}
	f := func(m *Matrix) bool {
		tt := m.Transpose().Transpose()
		return tt.Rows == m.Rows && tt.Cols == m.Cols && reflect.DeepEqual(tt.Data, m.Data)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
