//go:build !amd64

package kernel

// hasAVX2 is false off amd64: SegSumBlock always runs the Go body.
const hasAVX2 = false

// segSumBlock8 has no assembly body to run off amd64.
func segSumBlock8[C ColIndex](vals []float64, col []C, xi []float64, Y [][]float64, sums []float64, segs []Segment, unrollLen int) (int, bool) {
	return 0, false
}
