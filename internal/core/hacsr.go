// Package core implements the paper's contribution: the HACSR sparse
// format and the HASpMV algorithm — heterogeneity-aware SpMV for
// asymmetric multicore processors.
//
// The pipeline follows Section IV:
//
//  1. HACSR conversion (Algorithm 2): reorder row *pointers* so rows
//     shorter than a threshold `base` sit in the front of the matrix and
//     long rows at the back. Column indices and values never move, so
//     conversion is O(rows).
//  2. Cache-line cost (Algorithm 3): the load unit per row is the number
//     of distinct x-vector cache lines it touches, not its nonzero count.
//  3. Two-level partition (Algorithm 4): level 1 splits the total cost
//     between the P-group (short rows, where its per-core advantage is
//     largest) and the E-group by a proportion calibrated per machine;
//     level 2 splits each part equally among the group's cores, cutting
//     inside rows when necessary.
//  4. Execution (Algorithm 5): per-core kernels over the assigned
//     fragments; a row fragment that does not start its row accumulates
//     into an extraY slot and is added back in a serial epilogue,
//     avoiding write conflicts.
package core

import (
	"fmt"

	"haspmv/internal/exec"
	"haspmv/internal/sparse"
)

// HACSR is the heterogeneity-aware CSR variant of Section IV-B. It is a
// view over an existing CSR matrix: only row-level indirection is stored.
type HACSR struct {
	// Rows and Cols mirror the source matrix.
	Rows, Cols int
	// Base is the short/long row threshold used for the reorder.
	Base int
	// Perm maps reordered position -> original row index.
	Perm []int
	// RowPtr is the row pointer of the reordered matrix (hacsrRowPtr):
	// reordered row i covers reordered-nnz positions
	// [RowPtr[i], RowPtr[i+1]).
	RowPtr []int
	// RowBeginNNZ[i] is the offset of reordered row i's first nonzero in
	// the *original* value/column arrays (row_begin_nnz in Algorithm 2).
	RowBeginNNZ []int
	// NumShort is the count of rows with length < Base (they occupy
	// reordered positions [0, NumShort)).
	NumShort int
}

// Convert builds the HACSR view of a with the given threshold, following
// Algorithm 2: rows shorter than base fill forward from the front, rows of
// length >= base fill backward from the tail (and therefore appear in
// reverse encounter order, exactly as the front_row/tail_row pointers of
// the paper leave them).
func Convert(a *sparse.CSR, base int) *HACSR {
	h, _ := convert(a, base)
	return h
}

// convert is Convert plus fused empty-row collection: Prepare needs the
// zero-length rows anyway (they occupy no width in nnz space and must be
// zeroed explicitly), and the reorder sweep already reads every row
// length, so they are collected in the same pass instead of re-scanning
// the row pointer afterwards.
//
// Above the grain the sweep runs as a two-pass parallel counting sort.
// The sort key is the short/long class and the order within each class is
// the serial encounter order, which two passes preserve exactly: pass one
// counts each chunk's short and long rows, a serial scan turns the counts
// into per-chunk write offsets (shorts ascending from the front, longs
// descending from the tail — the front_row/tail_row pointers of Algorithm
// 2, pre-advanced per chunk), and pass two places rows at those offsets.
// Chunks cover ascending row ranges, so a row's position depends only on
// the class counts before it — the same stability argument as any
// counting sort — and the output is bit-identical to the serial loop.
func convert(a *sparse.CSR, base int) (*HACSR, []int) {
	m := a.Rows
	// One backing allocation: conversion cost is HACSR's selling point
	// (Figure 10), so the constant factors matter.
	buf := make([]int, 3*m+1)
	h := &HACSR{
		Rows: m, Cols: a.Cols, Base: base,
		Perm:        buf[:m:m],
		RowBeginNNZ: buf[m : 2*m : 2*m],
		RowPtr:      buf[2*m:],
	}
	c := exec.RangeChunks(m, prepWidth(), prepGrain)
	if c <= 1 {
		// Serial fast path: one fused placement + empty-collection pass.
		var empty []int
		frontRow, tailRow := 0, m-1
		for i := 0; i < m; i++ {
			l := a.RowPtr[i+1] - a.RowPtr[i]
			if l == 0 {
				empty = append(empty, i)
			}
			if l < base {
				h.Perm[frontRow] = i
				h.RowBeginNNZ[frontRow] = a.RowPtr[i]
				h.RowPtr[frontRow+1] = l // length, prefixed below
				frontRow++
			} else {
				h.Perm[tailRow] = i
				h.RowBeginNNZ[tailRow] = a.RowPtr[i]
				h.RowPtr[tailRow+1] = l
				tailRow--
			}
		}
		h.NumShort = frontRow
		for i := 0; i < m; i++ {
			h.RowPtr[i+1] += h.RowPtr[i]
		}
		return h, empty
	}
	// Pass 1: count each chunk's short and empty rows.
	shortIn := make([]int, c)
	emptyIn := make([]int, c)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(ch, lo, hi int) {
		s, e := 0, 0
		for i := lo; i < hi; i++ {
			l := a.RowPtr[i+1] - a.RowPtr[i]
			if l == 0 {
				e++
			}
			if l < base {
				s++
			}
		}
		shortIn[ch], emptyIn[ch] = s, e
	})
	// Serial offset scan: each chunk's first short, long and empty slot.
	shortOff := make([]int, c)
	longOff := make([]int, c)
	emptyOff := make([]int, c)
	sAcc, lAcc, eAcc := 0, 0, 0
	for ch := 0; ch < c; ch++ {
		rows := (ch+1)*m/c - ch*m/c
		shortOff[ch] = sAcc
		sAcc += shortIn[ch]
		longOff[ch] = m - 1 - lAcc
		lAcc += rows - shortIn[ch]
		emptyOff[ch] = eAcc
		eAcc += emptyIn[ch]
	}
	h.NumShort = sAcc
	var empty []int
	if eAcc > 0 {
		empty = make([]int, eAcc)
	}
	// Pass 2: place rows (and empties) at the chunk offsets.
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(ch, lo, hi int) {
		front, tail, ew := shortOff[ch], longOff[ch], emptyOff[ch]
		for i := lo; i < hi; i++ {
			l := a.RowPtr[i+1] - a.RowPtr[i]
			if l == 0 {
				empty[ew] = i
				ew++
			}
			if l < base {
				h.Perm[front] = i
				h.RowBeginNNZ[front] = a.RowPtr[i]
				h.RowPtr[front+1] = l
				front++
			} else {
				h.Perm[tail] = i
				h.RowBeginNNZ[tail] = a.RowPtr[i]
				h.RowPtr[tail+1] = l
				tail--
			}
		}
	})
	prefixSum(h.RowPtr[1:])
	return h, empty
}

// Identity builds a HACSR that preserves the natural row order (the
// reorder ablation and the partition-only modes use it).
func Identity(a *sparse.CSR) *HACSR {
	m := a.Rows
	h := &HACSR{
		Rows: m, Cols: a.Cols, Base: 0,
		Perm:        make([]int, m),
		RowPtr:      append([]int(nil), a.RowPtr...),
		RowBeginNNZ: make([]int, m),
		NumShort:    m,
	}
	for i := 0; i < m; i++ {
		h.Perm[i] = i
		h.RowBeginNNZ[i] = a.RowPtr[i]
	}
	return h
}

// RowLen returns the length of reordered row i.
func (h *HACSR) RowLen(i int) int { return h.RowPtr[i+1] - h.RowPtr[i] }

// NNZ returns the total nonzeros (equal to the source matrix's).
func (h *HACSR) NNZ() int { return h.RowPtr[h.Rows] }

// Validate checks the HACSR invariants against its source matrix: Perm is
// a permutation, lengths are consistent, RowBeginNNZ points at the
// original rows, and the short/long split respects Base.
func (h *HACSR) Validate(a *sparse.CSR) error {
	if h.Rows != a.Rows || h.Cols != a.Cols {
		return fmt.Errorf("hacsr: shape %dx%d vs source %dx%d", h.Rows, h.Cols, a.Rows, a.Cols)
	}
	seen := make([]bool, h.Rows)
	for i := 0; i < h.Rows; i++ {
		o := h.Perm[i]
		if o < 0 || o >= h.Rows {
			return fmt.Errorf("hacsr: Perm[%d] = %d out of range", i, o)
		}
		if seen[o] {
			return fmt.Errorf("hacsr: Perm repeats original row %d", o)
		}
		seen[o] = true
		if h.RowBeginNNZ[i] != a.RowPtr[o] {
			return fmt.Errorf("hacsr: RowBeginNNZ[%d] = %d, want %d", i, h.RowBeginNNZ[i], a.RowPtr[o])
		}
		wantLen := a.RowPtr[o+1] - a.RowPtr[o]
		if h.RowLen(i) != wantLen {
			return fmt.Errorf("hacsr: row %d length %d, want %d", i, h.RowLen(i), wantLen)
		}
		if h.Base > 0 {
			if i < h.NumShort && wantLen >= h.Base {
				return fmt.Errorf("hacsr: long row %d (len %d) in short section", i, wantLen)
			}
			if i >= h.NumShort && wantLen < h.Base {
				return fmt.Errorf("hacsr: short row %d (len %d) in long section", i, wantLen)
			}
		}
	}
	if h.NNZ() != a.NNZ() {
		return fmt.Errorf("hacsr: nnz %d, want %d", h.NNZ(), a.NNZ())
	}
	return nil
}

// CostMetric selects the per-row workload measure used by the partitioner.
type CostMetric int

const (
	// CacheLineCost counts the distinct x-vector cache lines a row
	// touches (Algorithm 3) — the paper's metric.
	CacheLineCost CostMetric = iota
	// NNZCost counts nonzeros (the conventional balance unit; Figure 9's
	// "by nnz" comparison).
	NNZCost
	// RowCost counts rows (OpenMP static scheduling; Figure 9's "by
	// row").
	RowCost
)

func (c CostMetric) String() string {
	switch c {
	case CacheLineCost:
		return "cacheline"
	case NNZCost:
		return "nnz"
	case RowCost:
		return "row"
	default:
		return fmt.Sprintf("CostMetric(%d)", int(c))
	}
}

// doublesPerLine is the number of float64 x-entries per 64-byte cache
// line; Algorithm 3 divides column indices by 8.
const doublesPerLine = 8

// RowCacheLineCost implements Algorithm 3's inner loop for one original
// row: the count of distinct x cache lines, assuming ascending column
// indices (the `ben` high-water mark of the pseudocode).
func RowCacheLineCost(a *sparse.CSR, origRow int) int {
	cost := 0
	ben := -1
	for k := a.RowPtr[origRow]; k < a.RowPtr[origRow+1]; k++ {
		if line := a.ColIdx[k] / doublesPerLine; line > ben {
			cost++
			ben = line
		}
	}
	return cost
}

// costSum builds the prefix-sum cost array over the *reordered* rows
// (cost_sum in Algorithm 3): costSum[i] is the total cost of reordered
// rows [0, i). Each reordered row's cache-line cost is computed straight
// into its slot through the permutation — chunked across the workers
// since each row's cost is independent — and prefix-summed with the
// chunked parallel scan.
func costSum(a *sparse.CSR, h *HACSR, metric CostMetric) []int {
	cs := make([]int, h.Rows+1)
	switch metric {
	case CacheLineCost:
		exec.ParallelRanges(h.Rows, prepWidth(), prepGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				cs[i+1] = RowCacheLineCost(a, h.Perm[i])
			}
		})
		prefixSum(cs[1:])
	case NNZCost:
		exec.ParallelRanges(h.Rows, prepWidth(), prepGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				cs[i+1] = h.RowLen(i)
			}
		})
		prefixSum(cs[1:])
	case RowCost:
		// Unit costs: the prefix sum is the index itself.
		exec.ParallelRanges(h.Rows+1, prepWidth(), prepGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				cs[i] = i
			}
		})
	default:
		panic(fmt.Sprintf("core: unknown metric %v", metric))
	}
	return cs
}
