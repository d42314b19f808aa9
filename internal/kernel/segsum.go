package kernel

import "math"

// Speculative segmented-sum kernels (Liu & Vinter, arXiv:1504.06474,
// adapted to HACSR): instead of the per-fragment walk — one Dot
// call per row, with the caller loading RowPtr/RowBeginNNZ/Perm and
// clamping against the region end for every row — a core executes a run
// of *whole* rows from a flat []Segment descriptor stream. The row loop
// lives inside the kernel, the short-row path is inlined, and each sum
// scatter-stores straight to its destination row. On power-law matrices
// whose typical row holds only a few nonzeros this removes the dominant
// per-row overhead; rows cut across cores are handled by the caller
// (head/continuation fragments plus a parallel patch, see
// internal/core).
//
// Every segmented kernel is *bit-exact* with the per-row walk it
// replaces: the dispatch thresholds and accumulator chains are exactly
// Dot's (the straight-line short-row cases below replay Dot's scalar
// loop add by add, and dot4/dot8 are the shared unrolled bodies), so a
// whole row produces the same float64 bits either way.

// Segment describes one whole reordered row: its value range in
// original-nnz space (HACSR never physically permutes the value array,
// so consecutive reordered rows are not contiguous and both bounds are
// stored) and the original (destination) row its sum stores to. The
// fields are int32 so a descriptor is 12 bytes — small enough that the
// descriptor stream stays a minor traffic term next to the values —
// which gates segmented execution to matrices with fewer than 2^31
// nonzeros and rows (internal/core checks before building).
type Segment struct {
	K0, K1 int32
	Dst    int32
}

// SegSum executes segs over one (value, index) stream pair: y[s.Dst] =
// Dot(vals, col, x, s.K0, s.K1, unrollLen) per segment, skipping
// empty segments (empty rows are pre-zeroed by the caller). Returns the
// number of non-empty segments processed.
//
// The per-segment dispatch is Dot's — straight-line scalar under
// ScalarThreshold, dot4 under unrollLen, dot8 above — so each row's
// chain is bit-identical to the fragment walk's.
func SegSum[C ColIndex](vals []float64, col []C, x, y []float64, segs []Segment, unrollLen int) int {
	done := 0
	for i := range segs {
		s := segs[i]
		lo, hi := int(s.K0), int(s.K1)
		length := hi - lo
		if length <= 0 {
			continue
		}
		var sum float64
		if length < ScalarThreshold {
			// Straight-line short-row cases: the same multiply-accumulate
			// chain as Dot's scalar loop (each `sum +=` in sequence, so
			// the float64 bits match), without per-element loop
			// bookkeeping — on power-law matrices almost every row lands
			// here, so the row loop overhead is the dominant cost.
			switch length {
			case 1:
				sum += vals[lo] * x[int(col[lo])]
			case 2:
				sum += vals[lo] * x[int(col[lo])]
				sum += vals[lo+1] * x[int(col[lo+1])]
			case 3:
				sum += vals[lo] * x[int(col[lo])]
				sum += vals[lo+1] * x[int(col[lo+1])]
				sum += vals[lo+2] * x[int(col[lo+2])]
			default: // only reached if ScalarThreshold grows past 4
				for k := lo; k < hi; k++ {
					sum += vals[k] * x[int(col[k])]
				}
			}
		} else if length < unrollLen {
			sum = dot4(vals, col, x, lo, hi)
		} else {
			sum = dot8(vals, col, x, lo, hi)
		}
		y[s.Dst] = sum
		done++
	}
	return done
}

// SegSumBlock is the batch segmented kernel: Y[j][s.Dst] = Dot(vals,
// col, X[j], s.K0, s.K1, unrollLen) for j in [0, len(sums)),
// bit-identical per vector to SegSum, reading X through the interleaved
// tile xi (xi[c*w+j] = X[j][c], see DotBlock). sums is the caller's
// pooled per-core block buffer; its length, up to MaxBlock, is the tile
// width. Every touchSegs segments it first touches the next ones'
// x lines (see touch). Returns the number of non-empty segments
// processed.
//
// A tile of 8 vectors over uint32 columns runs the AVX2 body where the
// host has it (segSumBlock8), every other call the Go body
// segSumBlockGo; both store the same bits (but for a NaN's payload,
// which the compiler may vary in the Go body).
func SegSumBlock[C ColIndex](vals []float64, col []C, xi []float64, Y [][]float64, sums []float64, segs []Segment, unrollLen int) int {
	if done, ok := segSumBlock8(vals, col, xi, Y, sums, segs, unrollLen); ok {
		return done
	}
	return segSumBlockGo(vals, col, xi, Y, sums, segs, unrollLen)
}

// segSumBlockGo is SegSumBlock's portable body: DotBlock per segment,
// then the w stores.
func segSumBlockGo[C ColIndex](vals []float64, col []C, xi []float64, Y [][]float64, sums []float64, segs []Segment, unrollLen int) int {
	done := 0
	for i := range segs {
		if i%touchSegs == 0 {
			touch(col, len(sums), xi, segs[i:min(i+touchSegs, len(segs))])
		}
		s := segs[i]
		lo, hi := int(s.K0), int(s.K1)
		if hi <= lo {
			continue
		}
		DotBlock(vals, col, xi, sums, lo, hi, unrollLen)
		for j, sum := range sums {
			Y[j][s.Dst] = sum
		}
		done++
	}
	return done
}

// touchSegs is how many segments SegSumBlock touches ahead of computing
// them.
const touchSegs = 16

// touch loads the first tile entry of every nonzero of segs, so that the
// x lines the next rows gather are fetched together. On short rows the
// block kernel's per-nonzero work (w multiply-adds and the row's w
// stores) fills the out-of-order window after a few rows, so without
// the touch only a few rows' misses overlap. It returns the loaded bits
// only to keep the loads, and stays out of line so that the caller,
// which ignores them, cannot let the compiler drop the loads.
//
//go:noinline
func touch[C ColIndex](col []C, w int, xi []float64, segs []Segment) (sink uint64) {
	for _, s := range segs {
		for k := int(s.K0); k < int(s.K1); k++ {
			sink ^= math.Float64bits(xi[int(col[k])*w])
		}
	}
	return sink
}
