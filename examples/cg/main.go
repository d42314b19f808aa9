// Conjugate gradient: the paper's introduction motivates SpMV as the
// dominant kernel of iterative sparse solvers. This example builds a
// symmetric positive-definite system (a 2D 5-point Poisson stencil), solves
// it with solver.CG, and uses a HASpMV handle for every A*p product —
// the analyze-once / multiply-many pattern CG rewards.
package main

import (
	"fmt"
	"log"
	"math"

	"haspmv"
	"haspmv/solver"
)

// poisson2D assembles the 5-point Laplacian on an n x n grid: an SPD
// matrix with 4 on the diagonal and -1 to each grid neighbor.
func poisson2D(n int) *haspmv.Matrix {
	size := n * n
	c := &haspmv.Triplets{Rows: size, Cols: size}
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := id(i, j)
			c.Add(r, r, 4)
			if i > 0 {
				c.Add(r, id(i-1, j), -1)
			}
			if i < n-1 {
				c.Add(r, id(i+1, j), -1)
			}
			if j > 0 {
				c.Add(r, id(i, j-1), -1)
			}
			if j < n-1 {
				c.Add(r, id(i, j+1), -1)
			}
		}
	}
	return c.ToCSR()
}

func main() {
	const grid = 200 // 40,000 unknowns, ~200k nonzeros
	a := poisson2D(grid)
	machine := haspmv.IntelI913900KF()

	h, err := haspmv.Analyze(machine, a, haspmv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG on %dx%d Poisson system (%d nnz), SpMV by %s\n",
		a.Rows, a.Cols, a.NNZ(), h.Name())

	// Right-hand side: b = A * ones, so the exact solution is ones.
	n := a.Rows
	exact := make([]float64, n)
	for i := range exact {
		exact[i] = 1
	}
	b := make([]float64, n)
	h.Multiply(b, exact)

	x := make([]float64, n) // start from zero
	st, err := solver.CG(solver.FromHandle(h), b, x, solver.Options{MaxIter: 2000, Tol: 1e-10})
	if err != nil {
		log.Fatal(err)
	}
	if !st.Converged {
		log.Fatalf("CG did not converge in %d iterations (relative residual %.2e)", st.Iterations, st.Residual)
	}

	errNorm := 0.0
	for i := range x {
		d := x[i] - exact[i]
		errNorm += d * d
	}
	errNorm = math.Sqrt(errNorm / float64(n))
	fmt.Printf("converged in %d iterations, relative residual %.2e, RMS error vs exact %.2e\n",
		st.Iterations, st.Residual, errNorm)

	// What the solver's SpMV costs on the AMP, per iteration.
	sim := h.Simulate(nil)
	fmt.Printf("modeled SpMV on %s: %.3f ms/iteration (%.2f GFlops)\n",
		machine.Name, 1e3*sim.Seconds, sim.GFlops)
	fmt.Printf("modeled SpMV share of a %d-iteration solve: %.1f ms\n",
		st.Iterations, 1e3*sim.Seconds*float64(st.Iterations))
}
