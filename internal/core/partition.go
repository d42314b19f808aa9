package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry"
)

// Region is one core's share of the matrix: a half-open range in
// reordered-nnz space (positions under HACSR.RowPtr). Regions tile
// [0, nnz) in core order.
type Region struct {
	Core   int
	Lo, Hi int
	// StartRow is the reordered row containing Lo, cached at partition
	// time so Compute, ComputeBatch and Assignments start their fragment
	// walks without a per-call binary search. For an empty region
	// (Lo == Hi == nnz) it is the row count.
	StartRow int
	// EndRow is the reordered row containing Hi-1 (StartRow for an empty
	// region), cached by assignGroups alongside the group bookkeeping.
	EndRow int
	// Cut-row group bookkeeping of a segmented region (assignGroups):
	// ContFirst is the head region's slot when this region's leading
	// fragment continues a cut row (-1 otherwise); HeadLast/HeadSpan
	// describe the group this region heads — the last member's slot and
	// the number of non-empty members (-1/0 when its last row is not
	// cut). Every such group meets at the parallel patch; under
	// ExecSerial all three stay -1/-1/0 and the extraY epilogue resolves
	// cut rows serially.
	ContFirst int
	HeadLast  int
	HeadSpan  int
}

// DefaultProportion derives the level-1 split (P_proportion in Algorithm
// 4) from the machine description alone: each group's capability is the
// geometric mean of its compute rate and per-core DRAM bandwidth, times
// its core count. On the Intel parts this lands near the paper's ~0.7
// P-share; on the AMD parts (identical cores) it is 0.5. Prepare uses the
// matrix-aware ProportionFor instead; the autotune example refines the
// value further with micro-benchmarks, as Section III prescribes.
func DefaultProportion(m *amp.Machine) float64 {
	capability := func(g *amp.CoreGroup) float64 {
		compute := g.FreqGHz * float64(g.SIMDLanes)
		return math.Sqrt(compute*g.MemBWGBps) * float64(g.Cores)
	}
	p := capability(m.PGroup())
	e := capability(m.EGroup())
	return p / (p + e)
}

// ProportionFor refines the level-1 split with the matrix footprint. A
// group whose last-level cache covers the working set keeps L3-class
// bandwidth; a group whose cache does not falls toward DRAM bandwidth —
// this is how the 7950X3D's V-Cache CCD earns a larger share on matrices
// between 32MB and 96MB, the paper's bandwidth-test-driven calibration.
// SpMV is memory bound, so memory capability dominates the weighting.
// The footprint prices 8-byte values and 4-byte column indices, the
// widths of the u32 stream every region runs (and the paper's CSR
// index, which the []int reference is priced at). Prepare resolves an
// unset Options.PProportion to exactly this value.
func ProportionFor(m *amp.Machine, a *sparse.CSR) float64 {
	footprint := float64(a.NNZ())*12 + float64(a.Cols*8+a.Rows*12)
	capability := func(g *amp.CoreGroup) float64 {
		compute := g.FreqGHz * float64(g.SIMDLanes)
		r3 := 1.0
		if footprint > float64(g.L3Bytes) && footprint > 0 {
			r3 = float64(g.L3Bytes) / footprint
		}
		mem := g.L3BPC*g.FreqGHz*r3 + g.MemBWGBps*(1-r3)
		return math.Pow(mem, 0.8) * math.Pow(compute, 0.2) * float64(g.Cores)
	}
	p := capability(m.PGroup())
	e := capability(m.EGroup())
	return p / (p + e)
}

// AutoBase picks the short/long threshold for the HACSR reorder: four
// times the average row length, floored at 64. Regular matrices keep their
// natural order (every row is "short"); power-law matrices send their hub
// rows to the back where the E-group's relative disadvantage is smallest.
func AutoBase(a *sparse.CSR) int {
	if a.Rows == 0 {
		return 64
	}
	base := 4 * ((a.NNZ() + a.Rows - 1) / a.Rows)
	if base < 64 {
		base = 64
	}
	return base
}

// partition implements Algorithm 4: cost boundaries at
// P_proportion*COST (level 1) and equal gaps within each group (level 2),
// each boundary located by binary search over the prefix costs and an
// in-row walk for the exact nonzero offset. When tel is non-nil the two
// levels are timed separately (the Fig. 7-style preprocessing breakdown).
func partition(a *sparse.CSR, col32 []uint32, h *HACSR, cs []int, m *amp.Machine, cores []int, pprop float64, metric CostMetric, oneLevel bool, tel *telemetry.Collector) []Region {
	n := len(cores)
	if n == 0 {
		return nil
	}
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	total := cs[len(cs)-1]

	// Cost-space boundaries per core (n+1 cut values).
	bounds := make([]float64, n+1)
	pCount := 0
	for _, c := range cores {
		if g, _ := m.GroupOf(c); g.Kind == amp.Performance {
			pCount++
		}
	}
	if oneLevel || pCount == 0 || pCount == n {
		for i := 0; i <= n; i++ {
			bounds[i] = float64(total) * float64(i) / float64(n)
		}
	} else {
		costp := float64(total) * pprop
		gapp := costp / float64(pCount)
		gape := (float64(total) - costp) / float64(n-pCount)
		bounds[0] = 0
		for i := 1; i <= n; i++ {
			if i <= pCount {
				bounds[i] = gapp * float64(i)
			} else {
				bounds[i] = costp + gape*float64(i-pCount)
			}
		}
	}
	bounds[n] = float64(total)
	if tel != nil {
		tel.RecordPhase(telemetry.PhasePartitionL1, time.Since(t0))
		t0 = time.Now()
	}

	cuts := make([]int, n+1)
	cuts[n] = h.NNZ()
	for i := 1; i < n; i++ {
		cuts[i] = costToPosition(a, col32, h, cs, bounds[i], metric)
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	regions := make([]Region, n)
	for i, c := range cores {
		regions[i] = Region{Core: c, Lo: cuts[i], Hi: cuts[i+1], StartRow: rowOfPosition(h, cuts[i])}
	}
	if tel != nil {
		tel.RecordPhase(telemetry.PhasePartitionL2, time.Since(t0))
	}
	return regions
}

// costToPosition converts a cost-space boundary into a reordered-nnz
// position, cutting inside a row when the boundary falls there. The
// in-row cache-line walk reads the u32 stream when one exists (a
// restored instance may not carry the []int reference indices at all),
// the matrix's own ColIdx otherwise — both hold the same columns, so
// the cut lands on the same position either way.
func costToPosition(a *sparse.CSR, col32 []uint32, h *HACSR, cs []int, bound float64, metric CostMetric) int {
	b := int(bound)
	// Largest reordered row r with cs[r] <= b.
	r := sort.SearchInts(cs, b+1) - 1
	if r < 0 {
		r = 0
	}
	if r >= h.Rows {
		return h.NNZ()
	}
	rem := b - cs[r]
	if rem <= 0 {
		return h.RowPtr[r]
	}
	switch metric {
	case RowCost:
		// Unit cost per row: boundaries always land on row edges.
		return h.RowPtr[r]
	case NNZCost:
		off := rem
		if l := h.RowLen(r); off > l {
			off = l
		}
		return h.RowPtr[r] + off
	case CacheLineCost:
		// Walk the original row until rem cache lines are covered; the
		// entry opening line rem+1 starts the next core's share.
		o := h.RowBeginNNZ[r]
		end := o + h.RowLen(r)
		cnt, ben := 0, -1
		if col32 != nil {
			for k := o; k < end; k++ {
				if line := int(col32[k]) / doublesPerLine; line > ben {
					cnt++
					ben = line
				}
				if cnt > rem {
					return h.RowPtr[r] + (k - o)
				}
			}
			return h.RowPtr[r+1]
		}
		for k := o; k < end; k++ {
			if line := a.ColIdx[k] / doublesPerLine; line > ben {
				cnt++
				ben = line
			}
			if cnt > rem {
				return h.RowPtr[r] + (k - o)
			}
		}
		return h.RowPtr[r+1]
	default:
		panic(fmt.Sprintf("core: unknown metric %v", metric))
	}
}

// checkRegions verifies that regions tile [0, nnz) in order and that each
// cached StartRow really contains Lo; used by tests and the harness
// self-check.
func checkRegions(h *HACSR, regions []Region) error {
	pos := 0
	for i, r := range regions {
		if r.Lo != pos {
			return fmt.Errorf("core: region %d starts at %d, want %d", i, r.Lo, pos)
		}
		if r.Hi < r.Lo {
			return fmt.Errorf("core: region %d inverted [%d,%d)", i, r.Lo, r.Hi)
		}
		if r.Lo < r.Hi {
			if r.StartRow < 0 || r.StartRow >= h.Rows ||
				h.RowPtr[r.StartRow] > r.Lo || h.RowPtr[r.StartRow+1] <= r.Lo {
				return fmt.Errorf("core: region %d caches start row %d for position %d", i, r.StartRow, r.Lo)
			}
		}
		pos = r.Hi
	}
	if pos != h.NNZ() {
		return fmt.Errorf("core: regions end at %d, want %d", pos, h.NNZ())
	}
	return nil
}
