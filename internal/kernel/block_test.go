package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBatch(r *rand.Rand, nv, cols int) [][]float64 {
	X := make([][]float64, nv)
	for v := range X {
		X[v] = make([]float64, cols)
		for i := range X[v] {
			X[v][i] = r.NormFloat64()
		}
	}
	return X
}

// The block kernel must also stay within reassociation tolerance of the
// single-accumulator reference (the same bound DotRange itself satisfies).
func TestBlockKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	val, col, _ := randomData(r, 2048, 512)
	X := randomBatch(r, MaxBlock, 512)
	sums := make([]float64, MaxBlock)
	for _, l := range []int{0, 3, 9, 65, 1000} {
		DotBlock(val, col, packTile(X), sums, 7, 7+l, DefaultUnrollThreshold)
		for v := 0; v < MaxBlock; v++ {
			ref := DotRangeSimple(val, col, X[v], 7, 7+l)
			if math.Abs(sums[v]-ref) > 1e-9*(1+math.Abs(ref)) {
				t.Fatalf("len %d vec %d: got %v want %v", l, v, sums[v], ref)
			}
		}
	}
}

// Property: for arbitrary ranges and widths the block kernel is bitwise
// equal to per-vector DotRange.
func TestBlockKernelProperty(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint16, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		val, col, _ := randomData(r, 1024, 128)
		w := 1 + int(wRaw)%MaxBlock
		X := randomBatch(r, w, 128)
		lo := int(loRaw) % 1024
		hi := lo + int(hiRaw)%(1024-lo+1)
		sums := make([]float64, w)
		DotBlock(val, col, packTile(X), sums, lo, hi, DefaultUnrollThreshold)
		for v := 0; v < w; v++ {
			if sums[v] != DotRange(val, col, X[v], lo, hi, DefaultUnrollThreshold) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The dispatch threshold only selects among numerically equivalent paths.
func TestBlockKernelThresholdDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	val, col, _ := randomData(r, 256, 64)
	X := randomBatch(r, MaxBlock, 64)
	a := make([]float64, MaxBlock)
	b := make([]float64, MaxBlock)
	xi := packTile(X)
	DotBlock(val, col, xi, a, 0, 100, 1<<30) // forces the mid path
	DotBlock(val, col, xi, b, 0, 100, 4)     // forces the long path
	for v := 0; v < MaxBlock; v++ {
		if math.Abs(a[v]-b[v]) > 1e-9*(1+math.Abs(a[v])) {
			t.Fatalf("vec %d: mid %v vs long %v", v, a[v], b[v])
		}
	}
}
