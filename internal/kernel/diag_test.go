package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// diagData builds a run-structured index stream: n nonzero positions
// covered by runs of consecutive columns with random lengths, plus the
// decoded []int columns the reference kernel walks. Runs are contiguous
// in k, exactly as core's builder lays out one row's runs.
func diagData(r *rand.Rand, n, cols, maxRun int) (val []float64, col []int, runs []DiaRun, x []float64) {
	val = make([]float64, n)
	col = make([]int, n)
	for k := range val {
		val[k] = r.NormFloat64()
	}
	x = make([]float64, cols)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	k := 0
	for k < n {
		l := 1 + r.Intn(maxRun)
		if k+l > n {
			l = n - k
		}
		c0 := r.Intn(cols - l)
		for j := 0; j < l; j++ {
			col[k+j] = c0 + j
		}
		runs = append(runs, DiaRun{EndK: int32(k + l), ColMinusK: int32(c0 - k)})
		k += l
	}
	return
}

// Every diag variant must be bit-identical to the []int kernel on the
// decoded columns, across the dispatch branches, remainder counts,
// nonzero lo offsets (including lo mid-run with ri pointing at the
// first run), and run lengths shorter and longer than the unroll
// groups.
func TestDiagBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, maxRun := range []int{1, 3, 20, 500} {
		val, col, runs, x := diagData(r, 2048, 8192, maxRun)
		idx, pal := palettize(val, 7)
		lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 128, 1000, 2000}
		for _, l := range lengths {
			for _, lo := range []int{0, 13} {
				hi := lo + l
				if hi > len(val) {
					continue
				}
				for _, un := range []int{4, 32, 64, 1 << 30} {
					want := DotRange(val, col, x, lo, hi, un)
					if got := DotRangeDiag(val, runs, 0, x, lo, hi, un); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("DotRangeDiag maxRun %d len %d lo %d un %d: got %x want %x", maxRun, l, lo, un, got, want)
					}
					wantP := DotRange(pal2val(idx, pal), col, x, lo, hi, un)
					if got := DotRangeDiagPalette(idx, pal, runs, 0, x, lo, hi, un); math.Float64bits(got) != math.Float64bits(wantP) {
						t.Fatalf("DotRangeDiagPalette maxRun %d len %d lo %d un %d: got %x want %x", maxRun, l, lo, un, got, wantP)
					}
				}
			}
		}
	}
}

func TestDiagBlockBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, maxRun := range []int{2, 30, 1500} {
		val, col, runs, x := diagData(r, 4096, 16384, maxRun)
		idx, pal := palettize(val, 5)
		palVal := pal2val(idx, pal)
		X := make([][]float64, MaxBlock)
		X[0] = x
		for j := 1; j < MaxBlock; j++ {
			X[j] = make([]float64, len(x))
			for i := range X[j] {
				X[j][i] = r.NormFloat64()
			}
		}
		for _, l := range []int{0, 1, 3, 4, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 3000} {
			for _, lo := range []int{0, 5} {
				hi := lo + l
				if hi > len(val) {
					continue
				}
				for w := 1; w <= MaxBlock; w++ {
					for _, un := range []int{4, 64, 1 << 30} {
						want := make([]float64, w)
						got := make([]float64, w)
						DotRangeBlock(val, col, X, want, lo, hi, un)
						DotRangeBlockDiag(val, runs, 0, X, got, lo, hi, un)
						for j := 0; j < w; j++ {
							if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
								t.Fatalf("BlockDiag maxRun %d len %d lo %d w %d un %d vec %d: got %x want %x", maxRun, l, lo, w, un, j, got[j], want[j])
							}
						}
						DotRangeBlock(palVal, col, X, want, lo, hi, un)
						DotRangeBlockDiagPalette(idx, pal, runs, 0, X, got, lo, hi, un)
						for j := 0; j < w; j++ {
							if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
								t.Fatalf("BlockDiagPalette maxRun %d len %d lo %d w %d un %d vec %d: got %x want %x", maxRun, l, lo, w, un, j, got[j], want[j])
							}
						}
					}
				}
			}
		}
	}
}

// palettize quantizes values onto a k-entry palette so palette streams
// can be tested against the []float64 reference resolved the same way.
func palettize(val []float64, k int) ([]uint8, []float64) {
	pal := make([]float64, k)
	for i := range pal {
		pal[i] = float64(i) - float64(k)/2
	}
	idx := make([]uint8, len(val))
	for i, v := range val {
		idx[i] = uint8(int(math.Abs(v)*1e4) % k)
	}
	return idx, pal
}

// pal2val resolves a palette stream into the []float64 the reference
// kernel reads.
func pal2val(idx []uint8, pal []float64) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = pal[i]
	}
	return out
}
