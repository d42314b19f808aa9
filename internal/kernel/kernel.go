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
// There is one body per loop shape, generic over the streams it reads:
// the value operand V (ValSource: the matrix's own []float64 or 1-byte
// palette indices) and, for the gather family, the column index C
// (ColIndex: the []int reference or the u32 absolute stream). The
// shapes are the gather (Dot, DotBlock), the one-run diagonal read at
// a per-row column offset (DotDia, DotDiaBlock) and the segmented row
// walk (SegSum, SegSumBlock). The batch gathers (DotBlock, SegSumBlock) read x from a
// column-interleaved tile, so the one random cache line a nonzero
// fetches serves every vector of the batch; DotDiaBlock reads each
// vector's contiguous run directly. Every instantiation assigns
// nonzeros to accumulator chains, reduces them and finishes the
// remainder in the same order, and a palette entry is the very float64
// the matrix stores, so all of them produce the same IEEE-754 bits as
// DotRange over the decoded columns and values. That order is the
// bit-identity contract the serving batcher and the fuzz oracles depend
// on; the tests in oracle_test.go pin every instantiation against an
// independent statement of it.
package kernel

import "unsafe"

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

// ValSource is the set of value-stream element types the bodies read:
// the []float64 reference (8 bytes) and uint8 palette indices resolved
// through a table of at most 256 float64s (1 byte).
type ValSource interface {
	~float64 | ~uint8
}

// valLoad resolves one value operand: the element itself for a float64
// stream, the palette entry pal[vals[k]] for an index stream. The test
// is on the size of V, which is a constant within each gcshape
// instantiation, so the compiler folds it away: the float64 bodies carry
// no palette test and the palette bodies no float64 branch. (Testing pal
// == nil instead leaves a per-load branch the compiler cannot hoist.)
func valLoad[V ValSource](vals []V, pal *[256]float64, k int) float64 {
	var v V
	if unsafe.Sizeof(v) == 8 {
		return float64(vals[k])
	}
	return pal[uint8(vals[k])]
}

// DotRange computes sum(val[k]*x[col[k]]) for k in [lo, hi), dispatching
// between the scalar, 4-wide, and 8-wide paths exactly as Algorithm 6.
// It is the float64 × []int instantiation of Dot the baselines call.
func DotRange(val []float64, col []int, x []float64, lo, hi, unrollLen int) float64 {
	return Dot(val, nil, col, x, lo, hi, unrollLen)
}

// Dot computes sum(v(k)*x[col[k]]) for k in [lo, hi), where v(k) is
// vals[k] for a float64 stream and pal[vals[k]] for a palette stream (pal
// is ignored for float64).
func Dot[V ValSource, C ColIndex](vals []V, pal *[256]float64, col []C, x []float64, lo, hi, unrollLen int) float64 {
	length := hi - lo
	if length <= 0 {
		return 0
	}
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[int(col[k])]
		}
		return sum
	}
	if length < unrollLen {
		return dot4(vals, pal, col, x, lo, hi)
	}
	return dot8(vals, pal, col, x, lo, hi)
}

// dot4 is the 4-accumulator path: one emulated 256-bit FMA per step.
func dot4[V ValSource, C ColIndex](vals []V, pal *[256]float64, col []C, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3 float64
	k := lo
	for ; k+4 <= hi; k += 4 {
		a0 += valLoad(vals, pal, k) * x[int(col[k])]
		a1 += valLoad(vals, pal, k+1) * x[int(col[k+1])]
		a2 += valLoad(vals, pal, k+2) * x[int(col[k+2])]
		a3 += valLoad(vals, pal, k+3) * x[int(col[k+3])]
	}
	// _mm256_hadd_pd equivalent.
	sum := (a0 + a2) + (a1 + a3)
	for ; k < hi; k++ {
		sum += valLoad(vals, pal, k) * x[int(col[k])]
	}
	return sum
}

// dot8 is the doubly-unrolled path (Algorithm 6's "repeat the previous
// four lines" for rows past Len).
func dot8[V ValSource, C ColIndex](vals []V, pal *[256]float64, col []C, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := lo
	for ; k+8 <= hi; k += 8 {
		a0 += valLoad(vals, pal, k) * x[int(col[k])]
		a1 += valLoad(vals, pal, k+1) * x[int(col[k+1])]
		a2 += valLoad(vals, pal, k+2) * x[int(col[k+2])]
		a3 += valLoad(vals, pal, k+3) * x[int(col[k+3])]
		b0 += valLoad(vals, pal, k+4) * x[int(col[k+4])]
		b1 += valLoad(vals, pal, k+5) * x[int(col[k+5])]
		b2 += valLoad(vals, pal, k+6) * x[int(col[k+6])]
		b3 += valLoad(vals, pal, k+7) * x[int(col[k+7])]
	}
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < hi; k++ {
		sum += valLoad(vals, pal, k) * x[int(col[k])]
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
