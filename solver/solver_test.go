package solver

import (
	"math"
	"math/rand"
	"testing"

	"haspmv"
)

// poisson1D builds the SPD tridiagonal [-1, 2, -1] system.
func poisson1D(n int) *haspmv.Matrix {
	c := &haspmv.Triplets{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

// nonsymmetric builds a diagonally dominant nonsymmetric matrix.
func nonsymmetric(n int, seed int64) *haspmv.Matrix {
	r := rand.New(rand.NewSource(seed))
	c := &haspmv.Triplets{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for k := 0; k < 4; k++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			v := r.NormFloat64()
			c.Add(i, j, v)
			rowSum += math.Abs(v)
		}
		c.Add(i, i, rowSum+1.5)
	}
	return c.ToCSR()
}

func residual(a *haspmv.Matrix, x, b []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	num, den := 0.0, 0.0
	for i := range r {
		d := b[i] - r[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		den = 1
	}
	return math.Sqrt(num / den)
}

func rhsFor(a *haspmv.Matrix, exact []float64) []float64 {
	b := make([]float64, a.Rows)
	a.MulVec(b, exact)
	return b
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestCGOnPoissonViaHandle(t *testing.T) {
	a := poisson1D(500)
	m := haspmv.IntelI912900KF()
	h, err := haspmv.Analyze(m, a, haspmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	op := FromHandle(h)
	if op.Rows() != 500 || op.Cols() != 500 {
		t.Fatal("operator dims")
	}
	exact := ones(500)
	b := rhsFor(a, exact)
	x := make([]float64, 500)
	st, err := CG(op, b, x, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	if res := residual(a, x, b); res > 1e-10 {
		t.Fatalf("residual %.2e", res)
	}
	for i := range x {
		if math.Abs(x[i]-1) > 1e-7 {
			t.Fatalf("x[%d] = %v", i, x[i])
		}
	}
}

func TestCGWithJacobiConvergesFaster(t *testing.T) {
	// A badly scaled SPD system: diag(1..n) + small off-diagonal.
	n := 400
	c := &haspmv.Triplets{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(i+1))
		if i > 0 {
			c.Add(i, i-1, 0.3)
			c.Add(i-1, i, 0.3)
		}
	}
	a := c.ToCSR()
	op := FromMatrix(a)
	b := rhsFor(a, ones(n))

	x1 := make([]float64, n)
	plain, err := CG(op, b, x1, Options{Tol: 1e-10, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := DiagonalPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	jacobi, err := CG(op, b, x2, Options{Tol: 1e-10, MaxIter: 5000, Precondition: pre})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !jacobi.Converged {
		t.Fatalf("convergence: plain %+v jacobi %+v", plain, jacobi)
	}
	if jacobi.Iterations >= plain.Iterations {
		t.Fatalf("jacobi %d iters not faster than plain %d", jacobi.Iterations, plain.Iterations)
	}
}

func TestBiCGSTABOnNonsymmetric(t *testing.T) {
	a := nonsymmetric(600, 3)
	op := FromMatrix(a)
	exact := make([]float64, 600)
	for i := range exact {
		exact[i] = math.Sin(float64(i))
	}
	b := rhsFor(a, exact)
	x := make([]float64, 600)
	st, err := BiCGSTAB(op, b, x, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("BiCGSTAB did not converge: %+v", st)
	}
	if res := residual(a, x, b); res > 1e-9 {
		t.Fatalf("residual %.2e", res)
	}
}

func TestBiCGSTABViaHandleMatchesReference(t *testing.T) {
	a := nonsymmetric(300, 9)
	m := haspmv.AMDRyzen97950X3D()
	h, err := haspmv.Analyze(m, a, haspmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := rhsFor(a, ones(300))
	xh := make([]float64, 300)
	xr := make([]float64, 300)
	sth, err := BiCGSTAB(FromHandle(h), b, xh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	str, err := BiCGSTAB(FromMatrix(a), b, xr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sth.Converged || !str.Converged {
		t.Fatal("convergence")
	}
	// Same algorithm, numerically equivalent kernels: solutions agree.
	for i := range xh {
		if math.Abs(xh[i]-xr[i]) > 1e-6 {
			t.Fatalf("handle vs reference solution differ at %d: %v vs %v", i, xh[i], xr[i])
		}
	}
}

func TestPowerIteration(t *testing.T) {
	// Diagonal matrix: dominant eigenvalue is the largest diagonal.
	n := 50
	c := &haspmv.Triplets{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(i+1))
	}
	a := c.ToCSR()
	x := ones(n)
	lambda, iters, err := PowerIteration(FromMatrix(a), x, 10000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-float64(n)) > 1e-6 {
		t.Fatalf("lambda = %v after %d iters, want %d", lambda, iters, n)
	}
	// Eigenvector concentrates on the last coordinate.
	if math.Abs(math.Abs(x[n-1])-1) > 1e-4 {
		t.Fatalf("eigenvector tail %v", x[n-1])
	}
}

func TestSolverErrors(t *testing.T) {
	rect := haspmv.FromDense([][]float64{{1, 0, 0}, {0, 1, 0}}, 0)
	if _, err := CG(FromMatrix(rect), make([]float64, 2), make([]float64, 2), Options{}); err != ErrNotSquare {
		t.Fatalf("CG non-square: %v", err)
	}
	if _, err := BiCGSTAB(FromMatrix(rect), make([]float64, 2), make([]float64, 2), Options{}); err != ErrNotSquare {
		t.Fatalf("BiCGSTAB non-square: %v", err)
	}
	if _, _, err := PowerIteration(FromMatrix(rect), make([]float64, 2), 10, 0); err != ErrNotSquare {
		t.Fatalf("power non-square: %v", err)
	}
	sq := poisson1D(4)
	if _, err := CG(FromMatrix(sq), make([]float64, 3), make([]float64, 4), Options{}); err == nil {
		t.Fatal("CG accepted short b")
	}
	if _, err := BiCGSTAB(FromMatrix(sq), make([]float64, 4), make([]float64, 3), Options{}); err == nil {
		t.Fatal("BiCGSTAB accepted short x")
	}
	if _, _, err := PowerIteration(FromMatrix(sq), make([]float64, 4), 10, 0); err == nil {
		t.Fatal("power accepted zero start vector")
	}
	if _, err := DiagonalPreconditioner(rect); err != ErrNotSquare {
		t.Fatalf("preconditioner non-square: %v", err)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := poisson1D(10)
	x := ones(10)
	st, err := CG(FromMatrix(a), make([]float64, 10), x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("zero-rhs solve: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want 0", i, x[i])
		}
	}
}

func TestCGMaxIterStops(t *testing.T) {
	a := poisson1D(2000)
	b := rhsFor(a, ones(2000))
	x := make([]float64, 2000)
	st, err := CG(FromMatrix(a), b, x, Options{MaxIter: 3, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged || st.Iterations != 3 {
		t.Fatalf("max-iter stop: %+v", st)
	}
	if st.Residual <= 0 {
		t.Fatal("residual not reported")
	}
}
