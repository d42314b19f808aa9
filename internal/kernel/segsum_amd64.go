package kernel

import "unsafe"

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state, the two conditions the assembly body needs. It is read once,
// at package initialisation.
var hasAVX2 = detectAVX2()

// detectAVX2 is the CPUID + XGETBV test: CPUID leaf 1 for OSXSAVE and
// AVX, XCR0 for the XMM and YMM state bits, leaf 7 for AVX2.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX = 0 (XCR0).
func xgetbv() (eax, edx uint32)

// segSumBlock8AVX2 is segSumBlockGo for a tile of 8 vectors over
// float64 values and uint32 columns. Before it computes a block of
// touchSegs segments it checks every non-empty one in it — 0 <= K0,
// K1 <= nnz, Dst < ylen and every column < len(xi)/8 — while it
// touches their x lines. It returns the non-empty segments it stored
// and next = len(segs), or, when a check fails, the index of the
// failing block's first segment, having stored nothing of that block.
//
//go:noescape
func segSumBlock8AVX2(vals []float64, col []uint32, xi []float64, Y [][]float64, segs []Segment, unrollLen, nnz, ylen int) (done, next int)

// segSumBlock4AVX2 is segSumBlock8AVX2 for a tile of 4 vectors, whose
// columns it checks against len(xi)/4.
//
//go:noescape
func segSumBlock4AVX2(vals []float64, col []uint32, xi []float64, Y [][]float64, segs []Segment, unrollLen, nnz, ylen int) (done, next int)

// segSumAVX2 is SegSum over float64 values and uint32 columns. It checks
// each non-empty segment — 0 <= K0, K1 <= nnz, Dst < len(y) and every
// column < len(x) — as it computes it, and returns the non-empty
// segments it stored and next = len(segs), or, when a check fails, the
// index of the failing segment, having stored nothing of it.
//
//go:noescape
func segSumAVX2(vals []float64, col []uint32, x, y []float64, segs []Segment, unrollLen, nnz int) (done, next int)

// asmChunk is how many segments one assembly call runs: assembly is not
// preemptible, so the wrappers return to Go between chunks. It is a
// multiple of touchSegs, so the touch blocks fall where the Go body's do.
const asmChunk = 64 * touchSegs

// asCol32 returns col as a []uint32 when C is the u32 stream and the host
// has AVX2, the two conditions of every assembly body. The size of C
// tells the column streams apart; it is a constant within each gcshape
// instantiation, so the test folds away in the []int one.
func asCol32[C ColIndex](col []C) ([]uint32, bool) {
	var c C
	if !hasAVX2 || unsafe.Sizeof(c) != 4 {
		return nil, false
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(col))), len(col)), true
}

// segSumAsm runs SegSum through segSumAVX2 when asCol32 allows, and
// reports whether it did.
func segSumAsm[C ColIndex](vals []float64, col []C, x, y []float64, segs []Segment, unrollLen int) (int, bool) {
	u32, ok := asCol32(col)
	if !ok {
		return 0, false
	}
	nnz := min(len(vals), len(col))
	done := 0
	for i := 0; i < len(segs); i += asmChunk {
		chunk := segs[i:min(i+asmChunk, len(segs))]
		d, next := segSumAVX2(vals, u32, x, y, chunk, unrollLen, nnz)
		done += d
		if next < len(chunk) {
			// A check failed: the Go body runs the rest from the failing
			// segment and panics where it always has.
			return done + segSumGo(vals, col, x, y, segs[i+next:], unrollLen), true
		}
	}
	return done, true
}

// segSumBlockAsm runs SegSumBlock through segSumBlock8AVX2 or
// segSumBlock4AVX2 when asCol32 allows and the tile is 8 or 4 vectors
// wide, and reports whether it did.
func segSumBlockAsm[C ColIndex](vals []float64, col []C, xi []float64, Y [][]float64, sums []float64, segs []Segment, unrollLen int) (int, bool) {
	w := len(sums)
	u32, ok := asCol32(col)
	if !ok || w != 4 && w != 8 || len(Y) < w {
		return 0, false
	}
	ylen := len(Y[0])
	for _, y := range Y[1:w] {
		ylen = min(ylen, len(y))
	}
	nnz := min(len(vals), len(col))
	done := 0
	for i := 0; i < len(segs); i += asmChunk {
		chunk := segs[i:min(i+asmChunk, len(segs))]
		var d, next int
		if w == 8 {
			d, next = segSumBlock8AVX2(vals, u32, xi, Y, chunk, unrollLen, nnz, ylen)
		} else {
			d, next = segSumBlock4AVX2(vals, u32, xi, Y, chunk, unrollLen, nnz, ylen)
		}
		done += d
		if next < len(chunk) {
			// A check failed: the Go body runs the rest from the failing
			// block, whose stores the assembly has not begun, and panics
			// where it always has.
			return done + segSumBlockGo(vals, col, xi, Y, sums, segs[i+next:], unrollLen), true
		}
	}
	return done, true
}
