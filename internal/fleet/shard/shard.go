// Package shard plans and executes row-sharding of a CSR matrix across
// fleet workers: matrices too large (or too hot) for one haspmv-serve
// process are cut into contiguous nnz ranges, one per worker, exactly
// like HASpMV cuts nnz across asymmetric cores — boundaries may fall in
// the middle of a row, in which case both neighbouring shards produce a
// partial sum for that row and the router's gather epilogue adds the
// fragments in ascending shard order, the same left-associated chain as
// internal/core's extraY merge.
//
// A Plan is a pure function of (RowPtr, weights, count): the router and
// every worker derive bit-identical plans independently, so no plan
// distribution protocol is needed — a worker handed (matrix, scale,
// index, count) regenerates the matrix, re-plans, and slices its own
// shard.
package shard

import (
	"fmt"
	"sort"

	"haspmv/internal/sparse"
)

// Desc describes one shard of a plan: a half-open nnz range [Lo, Hi) of
// the original matrix, the inclusive row range [Row0, Row1] the shard
// produces output for, and the half-open column window [ColLo, ColHi)
// its nonzeros touch (the x slice the shard needs).
type Desc struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo/Hi bound the shard's nonzeros in the original CSR order.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Row0/Row1 are the inclusive row range the shard owns. A row cut by
	// a shard boundary is owned by every shard holding a piece of it;
	// empty rows between boundaries belong to exactly one shard. An empty
	// shard has Row1 = Row0-1.
	Row0 int `json:"row0"`
	Row1 int `json:"row1"`
	// SplitFirst/SplitLast mark whether the first/last owned row is cut
	// so that another shard holds part of it (the fragments the gather
	// epilogue must add rather than copy).
	SplitFirst bool `json:"split_first,omitempty"`
	SplitLast  bool `json:"split_last,omitempty"`
	// ColLo/ColHi is the half-open column window of the shard's nonzeros:
	// the shard multiplies against x[ColLo:ColHi] only. Always a valid
	// non-empty window (even for an empty shard) so sliced matrices keep
	// at least one column.
	ColLo int `json:"col_lo"`
	ColHi int `json:"col_hi"`
}

// Rows returns the number of output rows the shard produces.
func (d Desc) Rows() int { return d.Row1 - d.Row0 + 1 }

// NNZ returns the number of nonzeros the shard owns.
func (d Desc) NNZ() int { return d.Hi - d.Lo }

// Cols returns the width of the shard's column window (the x slice
// length the shard consumes).
func (d Desc) Cols() int { return d.ColHi - d.ColLo }

// Plan cuts the matrix into count contiguous nnz ranges sized by
// weights (nil means uniform). Weights are the fleet-level analogue of
// the paper's P_proportion: a worker backed by a stronger core group
// gets a proportionally larger nnz share. The plan depends only on
// RowPtr, ColIdx extents and the arguments, so independent callers
// agree bit-for-bit.
func Plan(a *sparse.CSR, count int, weights []float64) ([]Desc, error) {
	if count < 1 {
		return nil, fmt.Errorf("shard: count %d, want >= 1", count)
	}
	if weights != nil && len(weights) != count {
		return nil, fmt.Errorf("shard: %d weights for %d shards", len(weights), count)
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("shard: negative weight %v", w)
		}
		total += w
	}
	if weights != nil && total <= 0 {
		return nil, fmt.Errorf("shard: weights sum to %v, want > 0", total)
	}
	nnz := a.NNZ()

	// Cut positions in nnz space: cuts[k] is where shard k starts.
	cuts := make([]int, count+1)
	cuts[count] = nnz
	acc := 0.0
	for k := 1; k < count; k++ {
		if weights == nil {
			cuts[k] = k * nnz / count
		} else {
			acc += weights[k-1]
			cuts[k] = int(acc / total * float64(nnz))
		}
		if cuts[k] < cuts[k-1] {
			cuts[k] = cuts[k-1]
		}
	}

	// rowOf(pos) is the row whose entries contain nnz position pos:
	// the last r with RowPtr[r] <= pos < RowPtr[r+1]. Runs of empty rows
	// share a RowPtr value; SearchInts lands past all of them, which is
	// what ownership wants (empty rows in a gap belong to the shard
	// starting at the gap, assigned below by the chain rule).
	rowOf := func(pos int) int {
		// First r with RowPtr[r+1] > pos.
		return sort.SearchInts(a.RowPtr[1:], pos+1)
	}

	plan := make([]Desc, count)
	prevRow1 := -1
	for k := 0; k < count; k++ {
		d := Desc{Index: k, Count: count, Lo: cuts[k], Hi: cuts[k+1]}
		if d.Lo < d.Hi {
			first := rowOf(d.Lo)
			if a.RowPtr[first] < d.Lo {
				// The cut split row `first`: the previous shard holds its
				// head, this shard continues it.
				d.Row0 = first
				d.SplitFirst = true
			} else {
				// Clean cut: also claim any empty rows between the previous
				// shard's last row and this shard's first nonzero row.
				d.Row0 = prevRow1 + 1
			}
			d.Row1 = rowOf(d.Hi - 1)
			d.SplitLast = d.Hi < a.RowPtr[d.Row1+1]
		} else {
			// Empty shard: owns no rows; the chain passes its position on.
			d.Row0 = prevRow1 + 1
			d.Row1 = d.Row0 - 1
		}
		if k == count-1 && d.Row1 < a.Rows-1 {
			// The last shard sweeps up trailing empty rows (they have no
			// nonzeros, so its kernel just writes zeros for them).
			if d.Lo == d.Hi {
				d.Row0 = prevRow1 + 1
			}
			d.Row1 = a.Rows - 1
		}
		d.ColLo, d.ColHi = colWindow(a, d.Lo, d.Hi)
		plan[k] = d
		if d.Row1 > prevRow1 {
			prevRow1 = d.Row1
		}
	}
	return plan, nil
}

// colWindow returns the half-open column window touched by nnz range
// [lo, hi), or a minimal valid window when the range is empty so sliced
// matrices always keep at least one column.
func colWindow(a *sparse.CSR, lo, hi int) (int, int) {
	if lo >= hi {
		return 0, min(1, max(a.Cols, 1))
	}
	cLo, cHi := a.ColIdx[lo], a.ColIdx[lo]
	for _, c := range a.ColIdx[lo:hi] {
		if c < cLo {
			cLo = c
		}
		if c > cHi {
			cHi = c
		}
	}
	return cLo, cHi + 1
}

// Slice materializes shard d of matrix a as a standalone CSR: rows
// Row0..Row1 with nonzeros clipped to [Lo, Hi) and columns rebased into
// the shard's window (so the shard multiplies against the x[ColLo:ColHi]
// slice the router sends it). The result shares no storage with a.
func Slice(a *sparse.CSR, d Desc) *sparse.CSR {
	rows := d.Rows()
	if rows < 0 {
		rows = 0
	}
	sub := &sparse.CSR{
		Rows:   rows,
		Cols:   d.Cols(),
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, d.NNZ()),
		Val:    make([]float64, d.NNZ()),
	}
	pos := 0
	for r := 0; r < rows; r++ {
		lo, hi := a.RowPtr[d.Row0+r], a.RowPtr[d.Row0+r+1]
		if lo < d.Lo {
			lo = d.Lo
		}
		if hi > d.Hi {
			hi = d.Hi
		}
		for k := lo; k < hi; k++ {
			sub.ColIdx[pos] = a.ColIdx[k] - d.ColLo
			sub.Val[pos] = a.Val[k]
			pos++
		}
		sub.RowPtr[r+1] = pos
	}
	return sub
}

// Gather assembles the full result vector from per-shard fragments,
// reusing the extraY merge discipline: a row owned by several shards
// gets its fragments added in ascending shard order (the same
// left-associated chain core's serial epilogue uses for cut rows), and
// a row owned by one shard is copied. frags[k] must have plan[k].Rows()
// elements; y must have the original matrix's row count.
func Gather(y []float64, plan []Desc, frags [][]float64) error {
	if len(frags) != len(plan) {
		return fmt.Errorf("shard: %d fragments for %d shards", len(frags), len(plan))
	}
	for k, d := range plan {
		if len(frags[k]) != d.Rows() {
			return fmt.Errorf("shard: fragment %d has %d rows, want %d", k, len(frags[k]), d.Rows())
		}
	}
	written := -1 // highest row already holding a value
	for k, d := range plan {
		for r := d.Row0; r <= d.Row1; r++ {
			v := frags[k][r-d.Row0]
			if r <= written {
				y[r] += v
			} else {
				y[r] = v
			}
		}
		if d.Row1 > written {
			written = d.Row1
		}
	}
	for r := written + 1; r < len(y); r++ {
		y[r] = 0
	}
	return nil
}

// Check validates a plan against its matrix: every nonzero in exactly
// one shard, every row owned by at least one shard, windows containing
// the shard's columns. Used by tests and the router's self-check mode.
func Check(a *sparse.CSR, plan []Desc) error {
	if len(plan) == 0 {
		return fmt.Errorf("shard: empty plan")
	}
	pos, row := 0, 0
	for k, d := range plan {
		if d.Lo != pos {
			return fmt.Errorf("shard: shard %d starts at nnz %d, want %d", k, d.Lo, pos)
		}
		if d.Hi < d.Lo {
			return fmt.Errorf("shard: shard %d has negative nnz range [%d,%d)", k, d.Lo, d.Hi)
		}
		pos = d.Hi
		if d.Rows() > 0 {
			if d.Row0 > row {
				return fmt.Errorf("shard: rows %d..%d unowned before shard %d", row, d.Row0-1, k)
			}
			if d.Row1+1 > row {
				row = d.Row1 + 1
			}
		}
		for _, c := range a.ColIdx[d.Lo:d.Hi] {
			if c < d.ColLo || c >= d.ColHi {
				return fmt.Errorf("shard: shard %d column %d outside window [%d,%d)", k, c, d.ColLo, d.ColHi)
			}
		}
	}
	if pos != a.NNZ() {
		return fmt.Errorf("shard: plan covers %d nonzeros, matrix has %d", pos, a.NNZ())
	}
	if row != a.Rows {
		return fmt.Errorf("shard: plan owns rows up to %d, matrix has %d", row, a.Rows)
	}
	return nil
}
