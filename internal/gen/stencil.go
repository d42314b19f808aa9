package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"haspmv/internal/sparse"
)

// StencilSpec describes a banded/stencil matrix: entries live on a fixed
// set of diagonals (col = row + offset), the structure of regular-grid
// finite-difference and finite-element discretizations. Where the
// Placement-based generators only produce bands *statistically*, the
// stencil generator pins the diagonal set exactly, so tests and benches
// can rely on every row decomposing into at most len(Offsets) runs of
// consecutive columns — one run when the offsets are consecutive, the
// shape the diagonal index format exists for — and can dirty that
// structure in controlled doses (BandFill holes, NoiseFrac off-band
// defects).
//
// Generation is deterministic for a given spec.
type StencilSpec struct {
	Name string
	Rows int
	Cols int
	// Offsets lists the diagonals carrying entries (col = row + offset),
	// in any order; duplicates are ignored. Empty selects a symmetric
	// Diagonals-point stencil instead.
	Offsets []int
	// Diagonals is the stencil width when Offsets is empty: the
	// Diagonals offsets nearest 0, center-out (0, 1, -1, 2, -2, ...).
	// A 5-point 1-D Laplacian row is Diagonals: 5.
	Diagonals int
	// BandFill is the probability each (row, diagonal) position is
	// occupied. Values <= 0 or >= 1 mean fully dense bands. Partial fill
	// breaks long runs into shorter ones without leaving the band.
	BandFill float64
	// NoiseFrac is the expected fraction of rows that receive one
	// off-band defect entry at a uniformly random column — the
	// constraint rows and boundary conditions that keep real FEM
	// matrices from being perfectly banded.
	NoiseFrac float64
	Seed      int64
}

// offsets returns the sorted, deduplicated diagonal set.
func (s StencilSpec) offsets() []int {
	offs := s.Offsets
	if len(offs) == 0 {
		d := s.Diagonals
		if d <= 0 {
			d = 5
		}
		offs = make([]int, 0, d)
		for o := 0; len(offs) < d; o++ {
			offs = append(offs, o)
			if o > 0 && len(offs) < d {
				offs = append(offs, -o)
			}
		}
	}
	out := append([]int(nil), offs...)
	sort.Ints(out)
	k := 0
	for i, o := range out {
		if i == 0 || o != out[k-1] {
			out[k] = o
			k++
		}
	}
	return out[:k]
}

// Generate materializes the stencil matrix.
func (s StencilSpec) Generate() *sparse.CSR {
	if s.Rows < 0 || s.Cols <= 0 {
		panic(fmt.Sprintf("gen: invalid stencil dims %dx%d", s.Rows, s.Cols))
	}
	offs := s.offsets()
	fill := s.BandFill
	if fill <= 0 || fill >= 1 {
		fill = 1
	}
	r := rand.New(rand.NewSource(s.Seed))

	// Continuous values in (0.1, 1.1) like the other generators.
	value := func() float64 { return 0.1 + r.Float64() }

	a := &sparse.CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1)}
	cols := make([]int, 0, len(offs)+1)
	for i := 0; i < s.Rows; i++ {
		cols = cols[:0]
		for _, o := range offs {
			c := i + o
			if c < 0 || c >= s.Cols {
				continue
			}
			if fill < 1 && r.Float64() >= fill {
				continue
			}
			cols = append(cols, c)
		}
		if s.NoiseFrac > 0 && r.Float64() < s.NoiseFrac {
			// One off-band defect; re-draw on (rare) collisions with a
			// band column so row totals stay exact.
			for {
				c := r.Intn(s.Cols)
				if !containsInt(cols, c) {
					cols = append(cols, c)
					sort.Ints(cols)
					break
				}
			}
		}
		for _, c := range cols {
			a.ColIdx = append(a.ColIdx, c)
			a.Val = append(a.Val, value())
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
