package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomData(r *rand.Rand, n, cols int) (val []float64, col []int, x []float64) {
	val = make([]float64, n)
	col = make([]int, n)
	x = make([]float64, cols)
	for i := range val {
		val[i] = r.NormFloat64()
		col[i] = r.Intn(cols)
	}
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return
}

func TestDotRangeEmpty(t *testing.T) {
	if got := DotRange(nil, nil, nil, 3, 3, 64); got != 0 {
		t.Fatalf("empty range = %v", got)
	}
	if got := DotRange(nil, nil, nil, 5, 3, 64); got != 0 {
		t.Fatalf("inverted range = %v", got)
	}
}

// Each path (scalar, 4-wide, 8-wide, remainders) must agree with the
// single-accumulator reference within reassociation tolerance.
func TestAllPathsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	val, col, x := randomData(r, 2048, 512)
	// Lengths covering every dispatch branch and remainder count.
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 128, 1000}
	for _, l := range lengths {
		for _, lo := range []int{0, 13} {
			hi := lo + l
			ref := DotRangeSimple(val, col, x, lo, hi)
			got := DotRange(val, col, x, lo, hi, 64)
			if math.Abs(got-ref) > 1e-9*(1+math.Abs(ref)) {
				t.Fatalf("len %d lo %d: got %v want %v", l, lo, got, ref)
			}
		}
	}
}

func TestUnrollThresholdDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	val, col, x := randomData(r, 256, 64)
	// Same range priced through both vector paths must agree.
	a := DotRange(val, col, x, 0, 100, 1<<30) // forces 4-wide
	b := DotRange(val, col, x, 0, 100, 4)     // forces 8-wide
	if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
		t.Fatalf("4-wide %v vs 8-wide %v", a, b)
	}
}

// Property: DotRange is within numerical tolerance of the reference for
// arbitrary ranges.
func TestDotRangeProperty(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		val, col, x := randomData(r, 1024, 128)
		lo := int(loRaw) % 1024
		hi := lo + int(hiRaw)%(1024-lo+1)
		ref := DotRangeSimple(val, col, x, lo, hi)
		got := DotRange(val, col, x, lo, hi, DefaultUnrollThreshold)
		return math.Abs(got-ref) <= 1e-9*(1+math.Abs(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
