package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

func TestComputeRowSkewBasics(t *testing.T) {
	// 4 rows: lengths 0, 1, 3, 8 → nnz 12.
	rowPtr := []int{0, 0, 1, 4, 12}
	s := ComputeRowSkew(rowPtr)
	if s.Rows != 4 || s.MaxRowNNZ != 8 {
		t.Fatalf("rows %d max %d, want 4/8", s.Rows, s.MaxRowNNZ)
	}
	if s.MeanRowNNZ != 3 {
		t.Fatalf("mean %v, want 3", s.MeanRowNNZ)
	}
	if s.MaxShare != 8.0/12 {
		t.Fatalf("max share %v, want %v", s.MaxShare, 8.0/12)
	}
	// Sorted lengths 0,1,3,8: G = 2*(0+2+9+32)/(4*12) - 5/4 = 0.541666…
	if want := 2*43.0/48 - 1.25; math.Abs(s.Gini-want) > 1e-12 {
		t.Fatalf("gini %v, want %v", s.Gini, want)
	}

	if s := ComputeRowSkew([]int{0}); s != (RowSkew{}) {
		t.Fatalf("empty matrix skew %+v, want zero", s)
	}
	if s := ComputeRowSkew([]int{0, 0, 0}); s.Gini != 0 || s.MaxShare != 0 {
		t.Fatalf("all-empty skew %+v", s)
	}
	// Perfectly even rows: Gini exactly 0.
	if s := ComputeRowSkew([]int{0, 5, 10, 15, 20}); s.Gini != 0 {
		t.Fatalf("even rows gini %v, want 0", s.Gini)
	}
}

// The counting-sort Gini must agree with sparse.ComputeRowStats'
// sort-based one on arbitrary matrices (different summation orders, so
// tolerance rather than bit equality).
func TestRowSkewGiniMatchesRowStats(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		rows := 1 + r.Intn(500)
		a := gen.Spec{
			Name: "g", Rows: rows, Cols: 1 + r.Intn(500),
			TargetNNZ: 1 + r.Intn(rows*10),
			Dist:      gen.PowerLen{Min: 1, Max: 200, Gamma: 1.5},
			Place:     gen.Placement(r.Intn(4)),
			Seed:      int64(trial),
		}.Generate()
		want := sparse.ComputeRowStats(a)
		got := ComputeRowSkew(a.RowPtr)
		if math.Abs(got.Gini-want.Gini) > 1e-9 {
			t.Fatalf("trial %d: gini %v, want %v", trial, got.Gini, want.Gini)
		}
		if got.MaxRowNNZ != want.MaxRowLen {
			t.Fatalf("trial %d: max %d, want %d", trial, got.MaxRowNNZ, want.MaxRowLen)
		}
	}
}

func TestRowsSpanningCores(t *testing.T) {
	// One row holding everything: every interior cut lands inside it,
	// but it is a single spanning row.
	if got := RowsSpanningCores([]int{0, 100}, 8); got != 1 {
		t.Fatalf("single row: %d, want 1", got)
	}
	// Even rows aligned with the cuts: no row spans.
	if got := RowsSpanningCores([]int{0, 25, 50, 75, 100}, 4); got != 0 {
		t.Fatalf("aligned rows: %d, want 0", got)
	}
	// Rows of 3 over 10 nnz cut at 5: the middle row spans.
	if got := RowsSpanningCores([]int{0, 3, 6, 9, 10}, 2); got != 1 {
		t.Fatalf("offset rows: %d, want 1", got)
	}
	if got := RowsSpanningCores([]int{0, 10}, 1); got != 0 {
		t.Fatalf("one core: %d, want 0", got)
	}
	if got := RowsSpanningCores([]int{0, 0, 0}, 4); got != 0 {
		t.Fatalf("empty matrix: %d, want 0", got)
	}
}

// twoPassSkew is ComputeRowSkew as it was before the capped histogram:
// a max pass, then a counting sort over a histogram as long as the
// longest row. The one-pass version must match it bit for bit.
func twoPassSkew(rowPtr []int) RowSkew {
	rows := len(rowPtr) - 1
	if rows <= 0 {
		return RowSkew{}
	}
	s := RowSkew{Rows: rows}
	nnz := rowPtr[rows] - rowPtr[0]
	for i := 0; i < rows; i++ {
		if l := rowPtr[i+1] - rowPtr[i]; l > s.MaxRowNNZ {
			s.MaxRowNNZ = l
		}
	}
	s.MeanRowNNZ = float64(nnz) / float64(rows)
	if nnz <= 0 {
		return s
	}
	s.MaxShare = float64(s.MaxRowNNZ) / float64(nnz)
	counts := make([]int, s.MaxRowNNZ+1)
	for i := 0; i < rows; i++ {
		counts[rowPtr[i+1]-rowPtr[i]]++
	}
	rank := counts[0]
	weighted := 0.0
	for l := 1; l <= s.MaxRowNNZ; l++ {
		c := counts[l]
		if c == 0 {
			continue
		}
		weighted += float64(l) * (float64(c)*float64(rank) + float64(c)*float64(c+1)/2)
		rank += c
	}
	n := float64(rows)
	s.Gini = 2*weighted/(n*float64(nnz)) - (n+1)/n
	return s
}

func TestRowSkewMatchesTwoPass(t *testing.T) {
	ptr := func(lens []int) []int {
		p := make([]int, len(lens)+1)
		for i, l := range lens {
			p[i+1] = p[i] + l
		}
		return p
	}
	r := rand.New(rand.NewSource(5))
	// A zipf-like profile: one 969,061-nnz hub row, tied long rows on
	// both sides of the histogram cap, and a short-row tail.
	hub := []int{0, 3, 969_061, 1, 2}
	for _, l := range []int{skewHistLen - 1, skewHistLen, skewHistLen, skewHistLen + 1, 5000, 5000, 5000, 70_000, 70_000} {
		hub = append(hub, l)
	}
	for i := 0; i < 200_000; i++ {
		hub = append(hub, 1+r.Intn(6))
	}
	r.Shuffle(len(hub), func(i, j int) { hub[i], hub[j] = hub[j], hub[i] })
	cases := [][]int{
		hub,
		{skewHistLen}, // one row, at the cap
		{0, 0, 7},
		{5000, 5000},
	}
	for trial := 0; trial < 30; trial++ {
		lens := make([]int, 1+r.Intn(3000))
		for i := range lens {
			lens[i] = r.Intn(3 * skewHistLen / (1 + r.Intn(64)))
		}
		cases = append(cases, lens)
	}
	for ci, lens := range cases {
		got, want := ComputeRowSkew(ptr(lens)), twoPassSkew(ptr(lens))
		if got.Rows != want.Rows || got.MaxRowNNZ != want.MaxRowNNZ ||
			math.Float64bits(got.MeanRowNNZ) != math.Float64bits(want.MeanRowNNZ) ||
			math.Float64bits(got.MaxShare) != math.Float64bits(want.MaxShare) ||
			math.Float64bits(got.Gini) != math.Float64bits(want.Gini) {
			t.Fatalf("case %d (%d rows): skew %+v, want %+v", ci, len(lens), got, want)
		}
	}
}
