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

// asmChunk is how many segments one assembly call runs: assembly is not
// preemptible, so the wrapper returns to Go between chunks. It is a
// multiple of touchSegs, so the touch blocks fall where the Go body's do.
const asmChunk = 64 * touchSegs

// segSumBlock8 runs SegSumBlock through segSumBlock8AVX2 when the host
// has AVX2 and the call is a tile of 8 vectors over uint32 columns, and
// reports whether it did. The size of C tells the column streams apart;
// it is a constant within each gcshape instantiation, so the test folds
// away in the []int one.
func segSumBlock8[C ColIndex](vals []float64, col []C, xi []float64, Y [][]float64, sums []float64, segs []Segment, unrollLen int) (int, bool) {
	var c C
	if !hasAVX2 || unsafe.Sizeof(c) != 4 || len(sums) != 8 || len(Y) < 8 {
		return 0, false
	}
	u32 := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(col))), len(col))
	ylen := len(Y[0])
	for _, y := range Y[1:8] {
		ylen = min(ylen, len(y))
	}
	nnz := min(len(vals), len(col))
	done := 0
	for i := 0; i < len(segs); i += asmChunk {
		chunk := segs[i:min(i+asmChunk, len(segs))]
		d, next := segSumBlock8AVX2(vals, u32, xi, Y, chunk, unrollLen, nnz, ylen)
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
