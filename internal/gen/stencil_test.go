package gen

import (
	"testing"
)

func TestStencilDeterministicAndOnDiagonals(t *testing.T) {
	sp := StencilSpec{Name: "lap5", Rows: 500, Cols: 500, Diagonals: 5, Seed: 7}
	a := sp.Generate()
	b := sp.Generate()
	if a.NNZ() != b.NNZ() {
		t.Fatalf("non-deterministic nnz: %d vs %d", a.NNZ(), b.NNZ())
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			t.Fatalf("entry %d differs between runs", k)
		}
	}
	// Diagonals: 5 selects offsets {-2,-1,0,1,2}; every entry must sit
	// on one of them, and interior rows carry all five.
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if o := a.ColIdx[k] - i; o < -2 || o > 2 {
				t.Fatalf("row %d entry at offset %d, want within [-2,2]", i, o)
			}
		}
		if i >= 2 && i < a.Rows-2 {
			if l := a.RowPtr[i+1] - a.RowPtr[i]; l != 5 {
				t.Fatalf("interior row %d has %d entries, want 5", i, l)
			}
		}
	}
	// Full bands: each row is one contiguous run.
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] != a.ColIdx[k-1]+1 {
				t.Fatalf("row %d not contiguous at entry %d", i, k)
			}
		}
	}
}

func TestStencilExplicitOffsetsAndFill(t *testing.T) {
	sp := StencilSpec{Rows: 2000, Cols: 2000, Offsets: []int{-64, 0, 64, 64}, BandFill: 0.5, Seed: 3}
	a := sp.Generate()
	allowed := map[int]bool{-64: true, 0: true, 64: true}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if !allowed[a.ColIdx[k]-i] {
				t.Fatalf("row %d entry at offset %d, want one of -64/0/64", i, a.ColIdx[k]-i)
			}
		}
	}
	// With fill 0.5 over ~3 slots/row the density must land well inside
	// (0.3, 0.7) of the dense-band count.
	dense := StencilSpec{Rows: 2000, Cols: 2000, Offsets: []int{-64, 0, 64}, Seed: 3}.Generate()
	ratio := float64(a.NNZ()) / float64(dense.NNZ())
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("band fill 0.5 produced density ratio %.3f", ratio)
	}
}

func TestStencilNoiseDefects(t *testing.T) {
	sp := StencilSpec{Rows: 4000, Cols: 4000, Diagonals: 3, NoiseFrac: 0.25, Seed: 11}
	a := sp.Generate()
	defects := 0
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if o := a.ColIdx[k] - i; o < -1 || o > 1 {
				defects++
			}
		}
		// Columns must stay sorted and distinct after defect insertion.
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] <= a.ColIdx[k-1] {
				t.Fatalf("row %d columns not sorted-distinct at %d", i, k)
			}
		}
	}
	if lo, hi := a.Rows/8, a.Rows/2; defects < lo || defects > hi {
		t.Fatalf("NoiseFrac 0.25 produced %d defects over %d rows, want within [%d,%d]",
			defects, a.Rows, lo, hi)
	}
}
