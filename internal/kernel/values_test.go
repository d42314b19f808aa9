package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// Every palette variant must be bit-identical to the []int kernel over
// the palette-resolved values.
func TestValueStreamsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	val, col, col32, col16, base, x := compressedData(r, 2048, 512)
	idx, pal := palettize(val, 11)
	palVal := pal2val(idx, pal)
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 128, 1000, 2000}
	for _, l := range lengths {
		for _, lo := range []int{0, 13} {
			hi := lo + l
			if hi > len(val) {
				continue
			}
			for _, un := range []int{4, 32, 64, 1 << 30} {
				wantP := DotRange(palVal, col, x, lo, hi, un)
				if got := DotRangePalette(idx, pal, col, 0, x, lo, hi, un); math.Float64bits(got) != math.Float64bits(wantP) {
					t.Fatalf("Palette[int] len %d lo %d un %d: got %x want %x", l, lo, un, got, wantP)
				}
				if got := DotRangePalette(idx, pal, col32, 0, x, lo, hi, un); math.Float64bits(got) != math.Float64bits(wantP) {
					t.Fatalf("Palette[u32] len %d lo %d un %d: got %x want %x", l, lo, un, got, wantP)
				}
				if got := DotRangePalette(idx, pal, col16, base, x, lo, hi, un); math.Float64bits(got) != math.Float64bits(wantP) {
					t.Fatalf("Palette[u16] len %d lo %d un %d: got %x want %x", l, lo, un, got, wantP)
				}
			}
		}
	}
}

func TestValueStreamsBlockBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	val, col, col32, col16, base, x := compressedData(r, 4096, 300)
	idx, pal := palettize(val, 3)
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
					DotRangeBlock(palVal, col, X, want, lo, hi, un)
					DotRangeBlockPalette(idx, pal, col32, 0, X, got, lo, hi, un)
					for j := 0; j < w; j++ {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("BlockPalette[u32] len %d lo %d w %d un %d vec %d: got %x want %x", l, lo, w, un, j, got[j], want[j])
						}
					}
					DotRangeBlockPalette(idx, pal, col16, base, X, got, lo, hi, un)
					for j := 0; j < w; j++ {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("BlockPalette[u16] len %d lo %d w %d un %d vec %d: got %x want %x", l, lo, w, un, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}
