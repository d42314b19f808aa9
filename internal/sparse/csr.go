// Package sparse provides the sparse-matrix data structures that underpin
// the HASpMV reproduction: CSR (compressed sparse row) and COO (coordinate)
// storage, conversion between them, structural validation, and row-level
// statistics used by the partitioning heuristics.
//
// All matrices store float64 values and use int row/column indices so the
// same code paths serve matrices from a few rows up to the multi-million-row
// instances in the paper's Table II.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format, the baseline
// representation of the paper (Algorithm 1). RowPtr has length Rows+1;
// the column indices and values of row i occupy ColIdx[RowPtr[i]:RowPtr[i+1]]
// and Val[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	Rows   int
	Cols   int
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int {
	if len(a.RowPtr) == 0 {
		return 0
	}
	return a.RowPtr[len(a.RowPtr)-1]
}

// RowLen returns the number of stored entries in row i.
func (a *CSR) RowLen(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// Row returns the column indices and values of row i as sub-slices that
// alias the matrix storage.
func (a *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// Validate checks the structural invariants of the CSR matrix: monotone
// row pointers, in-range column indices, and consistent array lengths.
// Column indices within a row are not required to be sorted (SuiteSparse
// files often are, but the algorithms must not rely on it).
func (a *CSR) Validate() error {
	return a.ValidateBy(func(n int, check func(lo, hi int) error) error { return check(0, n) })
}

// Sweep runs check over [0, n), whole or in contiguous chunks, and
// returns the error of the lowest failing chunk. Each check reports the
// first offender in its range, so any chunking yields the error a
// single check(0, n) would.
type Sweep func(n int, check func(lo, hi int) error) error

// ValidateBy is Validate with its two linear sweeps, the RowPtr checks
// over rows and the ColIdx range check over nonzeros, run by sweep. The
// O(1) header and length checks run in between, in Validate's order, so
// the error is Validate's for every sweep that honours Sweep's contract.
func (a *CSR) ValidateBy(sweep Sweep) error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	if err := sweep(a.Rows, a.checkRowPtr); err != nil {
		return err
	}
	nnz := a.RowPtr[a.Rows]
	if len(a.ColIdx) != nnz {
		return fmt.Errorf("sparse: ColIdx length %d, want %d", len(a.ColIdx), nnz)
	}
	if len(a.Val) != nnz {
		return fmt.Errorf("sparse: Val length %d, want %d", len(a.Val), nnz)
	}
	return sweep(nnz, a.checkColIdx)
}

// checkRowPtr checks rows [lo, hi): each row pointer is monotone and
// within ColIdx. A monotone prefix can still point past the storage when
// a later entry decreases again; checking every entry against the array
// length names the first offending row instead of failing on the
// aggregate nnz count (or not at all, when the final entry happens to
// match len(ColIdx)).
func (a *CSR) checkRowPtr(lo, hi int) error {
	for i := lo; i < hi; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d (%d > %d)", i, a.RowPtr[i], a.RowPtr[i+1])
		}
		if a.RowPtr[i+1] > len(a.ColIdx) {
			return fmt.Errorf("sparse: RowPtr[%d] = %d exceeds ColIdx length %d", i+1, a.RowPtr[i+1], len(a.ColIdx))
		}
	}
	return nil
}

// checkColIdx checks that ColIdx[lo:hi] lies in [0, Cols).
func (a *CSR) checkColIdx(lo, hi int) error {
	for k, c := range a.ColIdx[lo:hi] {
		if c < 0 || c >= a.Cols {
			return fmt.Errorf("sparse: ColIdx[%d] = %d out of range [0,%d)", lo+k, c, a.Cols)
		}
	}
	return nil
}

// SortRows sorts the column indices (and matching values) within each row
// in ascending order. Sorted rows improve cache-line cost estimation
// (Algorithm 3 assumes a forward sweep over columns).
func (a *CSR) SortRows() {
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[lo:hi]
		vals := a.Val[lo:hi]
		sort.Sort(&rowSorter{cols: cols, vals: vals})
	}
}

// RowsSorted reports whether every row's column indices are in strictly
// ascending order.
func (a *CSR) RowsSorted() bool {
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo + 1; k < hi; k++ {
			if a.ColIdx[k] <= a.ColIdx[k-1] {
				return false
			}
		}
	}
	return true
}

type rowSorter struct {
	cols []int
	vals []float64
}

func (s *rowSorter) Len() int           { return len(s.cols) }
func (s *rowSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// MulVec computes y = A*x serially. It is the reference implementation all
// parallel algorithms are tested against. len(x) must be Cols and len(y)
// must be Rows.
func (a *CSR) MulVec(y, x []float64) {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVec x length %d, want %d", len(x), a.Cols))
	}
	if len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVec y length %d, want %d", len(y), a.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// Transpose returns A^T in CSR form (equivalently, A in CSC form read as CSR).
func (a *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int, a.Cols+1),
		ColIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for _, c := range a.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < a.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:a.Cols]...)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			next[c]++
			t.ColIdx[p] = i
			t.Val[p] = a.Val[k]
		}
	}
	return t
}

// Equal reports whether two matrices have identical structure and values.
func (a *CSR) Equal(b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// EqualValues reports whether two matrices represent the same mathematical
// matrix (same dense expansion) within tolerance tol, regardless of storage
// order within rows.
func (a *CSR) EqualValues(b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	row := make(map[int]float64)
	for i := 0; i < a.Rows; i++ {
		clear(row)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			row[a.ColIdx[k]] += a.Val[k]
		}
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			row[b.ColIdx[k]] -= b.Val[k]
		}
		for _, v := range row {
			if math.Abs(v) > tol {
				return false
			}
		}
	}
	return true
}

// ErrDimension is returned by constructors given inconsistent inputs.
var ErrDimension = errors.New("sparse: inconsistent dimensions")

// NewCSR builds a validated CSR matrix from its raw arrays.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	a := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// FromDense builds a CSR matrix from a dense row-major matrix, storing
// every entry whose absolute value exceeds drop.
func FromDense(dense [][]float64, drop float64) *CSR {
	rows := len(dense)
	cols := 0
	if rows > 0 {
		cols = len(dense[0])
	}
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i, r := range dense {
		if len(r) != cols {
			panic("sparse: ragged dense matrix")
		}
		for j, v := range r {
			if math.Abs(v) > drop {
				a.ColIdx = append(a.ColIdx, j)
				a.Val = append(a.Val, v)
			}
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// ToDense expands the matrix to a dense row-major representation.
// Intended for tests on small matrices.
func (a *CSR) ToDense() [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
		d[i] = make([]float64, a.Cols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.ColIdx[k]] += a.Val[k]
		}
	}
	return d
}
