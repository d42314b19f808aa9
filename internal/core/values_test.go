package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"haspmv/internal/exec"
	"haspmv/internal/sparse"
)

// diagMatrix stores vals on the diagonal of a square matrix.
func diagMatrix(vals []float64) *sparse.CSR {
	n := len(vals)
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: vals}
	for i := range vals {
		a.RowPtr[i+1] = i + 1
		a.ColIdx[i] = i
	}
	return a
}

// mapPalette is the map-keyed first-occurrence palette buildValues had
// before the fixed table: the reference its output must equal.
func mapPalette(vals []float64) (pal []float64, idx []uint8, distinct int) {
	seen := make(map[uint64]uint8)
	for _, v := range vals {
		b := math.Float64bits(v)
		if _, ok := seen[b]; ok {
			continue
		}
		if len(pal) == PaletteMax {
			return nil, nil, PaletteMax + 1
		}
		seen[b] = uint8(len(pal))
		pal = append(pal, v)
	}
	idx = make([]uint8, len(vals))
	for k, v := range vals {
		idx[k] = seen[math.Float64bits(v)]
	}
	return pal, idx, len(pal)
}

// cycle returns n values drawing from distinct in a shuffled order that
// keeps each first occurrence in distinct's order.
func cycle(distinct []float64, n int, r *rand.Rand) []float64 {
	vals := append([]float64(nil), distinct...)
	for len(vals) < n {
		vals = append(vals, distinct[r.Intn(len(distinct))])
	}
	return vals
}

func TestPaletteMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	seq := func(n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = 1 + float64(i)/7
		}
		return d
	}
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff0000000000000 | payload) }
	// sameHome holds keys that share a home slot of sparse.Palette's
	// table (its Fibonacci hash of the bits, top 10 bits), so they probe
	// past each other.
	var sameHome []float64
	home := func(b uint64) uint64 { return (b * 0x9e3779b97f4a7c15) >> 54 }
	for i := uint64(1); len(sameHome) < 12; i++ {
		if v := float64(i); home(math.Float64bits(v)) == home(math.Float64bits(1)) {
			sameHome = append(sameHome, v)
		}
	}
	randomBits := make([]float64, PaletteMax)
	for i := range randomBits {
		randomBits[i] = math.Float64frombits(r.Uint64())
	}
	alternating := make([]float64, 999)
	for k := range alternating {
		alternating[k] = float64(k % 2)
	}
	runs := make([]float64, 0, 1200)
	for i := 0; i < 40; i++ {
		for j := 0; j < 30; j++ {
			runs = append(runs, float64(i%5))
		}
	}
	cases := []struct {
		name string
		vals []float64
	}{
		{"one-value", cycle([]float64{1}, 1000, r)},
		{"single-nnz", []float64{-3.5}},
		{"255", cycle(seq(255), 3000, r)},
		{"256", cycle(seq(256), 3000, r)},
		{"257", cycle(seq(257), 3000, r)},
		{"257-at-end", append(cycle(seq(256), 3000, r), 1e300)},
		{"signed-zeros", cycle([]float64{0, math.Copysign(0, -1)}, 500, r)},
		{"nan-payloads", cycle([]float64{nan(1), nan(2), nan(1 << 51), math.NaN(), -math.NaN(), nan(3)}, 800, r)},
		{"subnormals", cycle([]float64{math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), -math.SmallestNonzeroFloat64}, 800, r)},
		{"alternating", alternating},
		{"runs", runs},
		{"same-home-slot", cycle(sameHome, 2000, r)},
		{"random-bits", cycle(randomBits, 4000, r)},
	}
	// Up to eight fill chunks even on a host with fewer CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, tc := range cases {
		a := diagMatrix(tc.vals)
		wantPal, wantIdx, wantDistinct := mapPalette(tc.vals)
		for _, grain := range []int{1 << 30, 1, 97} {
			var vs valueStreams
			withGrain(grain, func() { vs = buildValues(a, ValueAuto) })
			chunks := exec.RangeChunks(len(tc.vals), prepWidth(), grain)
			if vs.distinct != wantDistinct {
				t.Fatalf("%s (%d chunks): distinct %d, want %d", tc.name, chunks, vs.distinct, wantDistinct)
			}
			if wantDistinct > PaletteMax {
				if vs.format != ValF64 || vs.pal != nil || vs.palIdx != nil {
					t.Fatalf("%s: %d distinct values built format %s", tc.name, wantDistinct, vs.format)
				}
				continue
			}
			if vs.format != ValPalette {
				t.Fatalf("%s: format %s, want palette", tc.name, vs.format)
			}
			if len(vs.pal) != len(wantPal) {
				t.Fatalf("%s: palette length %d, want %d", tc.name, len(vs.pal), len(wantPal))
			}
			for i := range wantPal {
				if math.Float64bits(vs.pal[i]) != math.Float64bits(wantPal[i]) ||
					math.Float64bits(vs.tab[i]) != math.Float64bits(wantPal[i]) {
					t.Fatalf("%s: pal[%d] = %#x, want %#x", tc.name, i, math.Float64bits(vs.pal[i]), math.Float64bits(wantPal[i]))
				}
			}
			for k := range wantIdx {
				if vs.palIdx[k] != wantIdx[k] {
					t.Fatalf("%s (%d chunks): palIdx[%d] = %d, want %d", tc.name, chunks, k, vs.palIdx[k], wantIdx[k])
				}
			}
		}
	}
}
