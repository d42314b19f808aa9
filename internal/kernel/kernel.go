// Package kernel provides the inner dot-product kernels of Algorithm 6.
// The paper uses AVX2 intrinsics (_mm256_loadu_pd / _mm256_set_pd /
// _mm256_fmadd_pd) with an extra level of loop unrolling for long rows.
// Go has no intrinsics, so the Go bodies keep the exact algorithmic
// structure — a scalar path for rows shorter than 4, a 4-wide
// accumulator path, an 8-wide doubly-unrolled path for rows past the
// Len threshold, and a scalar remainder loop — using independent
// accumulators that the cost model treats as SIMD lanes. One body is
// also written in amd64 assembly: the 8-vector segmented-sum tile over
// float64 values and u32 columns (segsum_amd64.s), where a tile row of
// 8 vectors is exactly two YMM registers. It runs on AVX2 hosts; every
// other host, width and stream type runs the Go body.
//
// There is one body per loop shape, generic over the column index C
// (ColIndex: the []int reference or the u32 absolute stream) for the
// gather family; every body reads the matrix's own []float64 values.
// The shapes are the gather (Dot, DotBlock) and the segmented row walk
// (SegSum, SegSumBlock). The batch bodies (DotBlock, SegSumBlock) read
// x from a column-interleaved tile, so the one random cache line a
// nonzero fetches serves every vector of the batch. Every
// instantiation assigns nonzeros to accumulator chains, reduces them
// and finishes the remainder in the same order, so all of them produce
// the same IEEE-754 bits as DotRange over the decoded columns. That
// order is the bit-identity contract the serving batcher and the fuzz
// oracles depend on; the tests in oracle_test.go pin every
// instantiation against an independent statement of it.
package kernel

// ScalarThreshold is Algorithm 6's `length < 4` cutoff below which the
// plain scalar loop runs.
const ScalarThreshold = 4

// DefaultUnrollThreshold is the Len threshold above which the 8-wide
// doubly-unrolled path is used. The paper derives Len per core type; the
// executors pass their own values.
const DefaultUnrollThreshold = 64

// ColIndex is the set of column-index element types the gather bodies
// walk: the []int reference and the compressed uint32 stream. Each is a
// distinct gcshape, so no instantiation pays a boxing or interface cost.
type ColIndex interface {
	~uint32 | ~int
}

// DotRange computes sum(val[k]*x[col[k]]) for k in [lo, hi), dispatching
// between the scalar, 4-wide, and 8-wide paths exactly as Algorithm 6.
// It is the []int instantiation of Dot the baselines call.
func DotRange(val []float64, col []int, x []float64, lo, hi, unrollLen int) float64 {
	return Dot(val, col, x, lo, hi, unrollLen)
}

// Dot computes sum(vals[k]*x[col[k]]) for k in [lo, hi) over either
// column stream.
func Dot[C ColIndex](vals []float64, col []C, x []float64, lo, hi, unrollLen int) float64 {
	length := hi - lo
	if length <= 0 {
		return 0
	}
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += vals[k] * x[int(col[k])]
		}
		return sum
	}
	if length < unrollLen {
		return dot4(vals, col, x, lo, hi)
	}
	return dot8(vals, col, x, lo, hi)
}

// dot4 is the 4-accumulator path: one emulated 256-bit FMA per step.
func dot4[C ColIndex](vals []float64, col []C, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3 float64
	k := lo
	for ; k+4 <= hi; k += 4 {
		a0 += vals[k] * x[int(col[k])]
		a1 += vals[k+1] * x[int(col[k+1])]
		a2 += vals[k+2] * x[int(col[k+2])]
		a3 += vals[k+3] * x[int(col[k+3])]
	}
	// _mm256_hadd_pd equivalent.
	sum := (a0 + a2) + (a1 + a3)
	for ; k < hi; k++ {
		sum += vals[k] * x[int(col[k])]
	}
	return sum
}

// dot8 is the doubly-unrolled path (Algorithm 6's "repeat the previous
// four lines" for rows past Len).
func dot8[C ColIndex](vals []float64, col []C, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := lo
	for ; k+8 <= hi; k += 8 {
		a0 += vals[k] * x[int(col[k])]
		a1 += vals[k+1] * x[int(col[k+1])]
		a2 += vals[k+2] * x[int(col[k+2])]
		a3 += vals[k+3] * x[int(col[k+3])]
		b0 += vals[k+4] * x[int(col[k+4])]
		b1 += vals[k+5] * x[int(col[k+5])]
		b2 += vals[k+6] * x[int(col[k+6])]
		b3 += vals[k+7] * x[int(col[k+7])]
	}
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < hi; k++ {
		sum += vals[k] * x[int(col[k])]
	}
	return sum
}

// DotRangeSimple is the reference single-accumulator loop, used by tests
// to bound the floating-point reassociation error of the unrolled paths.
func DotRangeSimple(val []float64, col []int, x []float64, lo, hi int) float64 {
	sum := 0.0
	for k := lo; k < hi; k++ {
		sum += val[k] * x[col[k]]
	}
	return sum
}
