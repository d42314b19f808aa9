//go:build !amd64

package kernel

// hasAVX2 is false off amd64: SegSum and SegSumBlock always run the Go
// bodies.
const hasAVX2 = false

// segSumAsm has no assembly body to run off amd64.
func segSumAsm[C ColIndex](vals []float64, col []C, x, y []float64, segs []Segment, unrollLen int) (int, bool) {
	return 0, false
}

// segSumBlockAsm has no assembly body to run off amd64.
func segSumBlockAsm[C ColIndex](vals []float64, col []C, xi []float64, Y [][]float64, sums []float64, segs []Segment, unrollLen int) (int, bool) {
	return 0, false
}
