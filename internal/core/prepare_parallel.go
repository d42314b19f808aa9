package core

import (
	"haspmv/internal/exec"
	"haspmv/internal/sparse"
)

// The Prepare pipeline is a handful of O(rows) and O(nnz) streaming
// sweeps — exactly the memory-bound regime where the only lever is
// walking the streams with every core at once. Each sweep below follows
// the same two-pass discipline: a parallel counting/accumulation pass
// over fixed chunks, a serial O(chunks) offset scan, and a parallel
// placement pass writing at precomputed offsets. Chunk boundaries are a
// pure function of the input size (exec.ParallelRanges), so both passes
// see identical chunks and the output is bit-identical to the serial
// algorithm. On a single-CPU host every sweep collapses to one chunk and
// runs inline, serial-fast.

// prepGrain is the minimum rows (or elements) per chunk in the parallel
// Prepare sweeps. It is a variable so tests can force multi-chunk
// execution on small matrices and pin the parallel output against the
// serial one.
var prepGrain = 1 << 13

// prepWidth is the chunk-count budget for Prepare sweeps.
func prepWidth() int { return exec.Workers() }

// prefixSum converts xs to its inclusive prefix sum in place. Above the
// grain it runs the classic chunked scan: per-chunk local prefix sums in
// parallel, a serial scan of the chunk totals, then a parallel offset
// add-back over every chunk but the first.
func prefixSum(xs []int) {
	n := len(xs)
	c := exec.RangeChunks(n, prepWidth(), prepGrain)
	if c <= 1 {
		acc := 0
		for i := range xs {
			acc += xs[i]
			xs[i] = acc
		}
		return
	}
	tails := make([]int, c)
	exec.ParallelRanges(n, prepWidth(), prepGrain, func(ch, lo, hi int) {
		acc := 0
		for i := lo; i < hi; i++ {
			acc += xs[i]
			xs[i] = acc
		}
		tails[ch] = acc
	})
	offs := make([]int, c)
	off := 0
	for ch := 0; ch < c; ch++ {
		offs[ch] = off
		off += tails[ch]
	}
	exec.ParallelRanges(n, prepWidth(), prepGrain, func(ch, lo, hi int) {
		if d := offs[ch]; d != 0 {
			for i := lo; i < hi; i++ {
				xs[i] += d
			}
		}
	})
}

// collectEmptyRows returns the indices of rows with no nonzeros in
// ascending order, in one sweep over the row pointer (the natural-order
// path; Convert folds the same collection into its reorder sweep). The
// serial path fills as it scans instead of counting and re-scanning; the
// parallel path counts per chunk, sizes the result exactly, and fills at
// per-chunk offsets.
func collectEmptyRows(a *sparse.CSR) []int {
	m := a.Rows
	c := exec.RangeChunks(m, prepWidth(), prepGrain)
	if c <= 1 {
		var empty []int
		for i := 0; i < m; i++ {
			if a.RowPtr[i+1] == a.RowPtr[i] {
				empty = append(empty, i)
			}
		}
		return empty
	}
	counts := make([]int, c)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(ch, lo, hi int) {
		n := 0
		for i := lo; i < hi; i++ {
			if a.RowPtr[i+1] == a.RowPtr[i] {
				n++
			}
		}
		counts[ch] = n
	})
	total := 0
	offs := make([]int, c)
	for ch, n := range counts {
		offs[ch] = total
		total += n
	}
	if total == 0 {
		return nil
	}
	empty := make([]int, total)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(ch, lo, hi int) {
		w := offs[ch]
		for i := lo; i < hi; i++ {
			if a.RowPtr[i+1] == a.RowPtr[i] {
				empty[w] = i
				w++
			}
		}
	})
	return empty
}

// validate is a.Validate with its row-pointer and column-index sweeps
// chunked over the workers. Every chunk reports its first offender and
// the lowest failing chunk wins, so the error is the serial one.
func validate(a *sparse.CSR) error {
	return a.ValidateBy(func(n int, check func(lo, hi int) error) error {
		errs := make([]error, exec.RangeChunks(n, prepWidth(), prepGrain))
		exec.ParallelRanges(n, prepWidth(), prepGrain, func(ch, lo, hi int) {
			errs[ch] = check(lo, hi)
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}
