// Package costmodel estimates SpMV and stream-triad execution time on an
// amp.Machine. It is the performance substrate that substitutes for the
// paper's physical AMPs (DESIGN.md): per-core time combines a compute term
// (frequency, SIMD lanes, per-row kernel overhead — Algorithm 6's scalar
// vs vectorized paths), a memory term (streaming arrays through a cache
// "waterfall", x-vector gathers replayed through an LRU cache simulator),
// and chip-level DRAM bandwidth contention. Parallel time is the maximum
// over cores, subject to per-group fabric and chip DRAM ceilings — exactly
// the structure that makes heterogeneity-aware partitioning matter.
package costmodel

import (
	"fmt"
	"sort"

	"haspmv/internal/amp"
	"haspmv/internal/cachesim"
	"haspmv/internal/sparse"
)

// Params are the calibration constants of the model. The defaults were
// chosen so the micro-benchmark shapes of the paper's Section III emerge
// (see EXPERIMENTS.md); they are exposed so the ablation benches can vary
// them.
type Params struct {
	// ValBytes/IdxBytes/PtrBytes are the storage sizes of csrVal,
	// csrColIdx and csrRowPtr entries (8/4/4 in the paper's C code; the
	// Go implementation uses wider ints, but the model follows the paper).
	ValBytes, IdxBytes, PtrBytes int

	// ScalarRowThreshold is Algorithm 6's cutoff: rows shorter than this
	// run the scalar loop.
	ScalarRowThreshold int
	// OverheadCyclesSIMD / OverheadCyclesScalar are per-row kernel-call
	// costs in scalar instructions (loop setup, horizontal add, y store,
	// branch); they retire at the group's IPCScalar rate, which is where
	// the P-cores' wide out-of-order front end pays off on short rows
	// (Figure 5's short-row gap).
	OverheadCyclesSIMD   float64
	OverheadCyclesScalar float64

	// MixedGroupDRAMPenalty reduces effective chip DRAM bandwidth when
	// both groups issue significant DRAM traffic concurrently, modeling
	// memory-controller interference between request streams of unequal
	// aggressiveness (the Figure 3 effect where P+E sits below P-only on
	// the DRAM plateau).
	MixedGroupDRAMPenalty float64

	// CacheWays gives the associativity used for the simulated x-vector
	// hierarchy (L1, L2, L3).
	CacheWays [3]int

	// XGatherPasses >= 1 replays the gather trace; the last pass is the
	// one measured, so passes=2 models the steady state of an iterative
	// solver (the paper times repeated SpMV).
	XGatherPasses int
}

// DefaultParams returns the calibrated defaults.
func DefaultParams() Params {
	return Params{
		ValBytes: 8, IdxBytes: 4, PtrBytes: 4,
		ScalarRowThreshold:    4,
		OverheadCyclesSIMD:    14,
		OverheadCyclesScalar:  8,
		MixedGroupDRAMPenalty: 0.12,
		CacheWays:             [3]int{8, 8, 16},
		XGatherPasses:         2,
	}
}

// Span is a half-open nonzero range [Lo, Hi) of a CSR matrix.
type Span struct{ Lo, Hi int }

// Assignment gives one core its share of the matrix as nnz spans.
// Spans may start or end mid-row (HASpMV cuts inside rows; the conflicts
// are resolved by the extraY epilogue), which the model charges as an
// extra kernel invocation per partial row.
type Assignment struct {
	Core  int
	Spans []Span
	// IdxBytes, when positive, overrides Params.IdxBytes for this
	// assignment's streaming term: algorithms with a compressed
	// column-index stream (HASpMV's u32 stream) price each region at the
	// width it actually moves.
	IdxBytes int
}

// NNZ returns the total nonzeros assigned.
func (a Assignment) NNZ() int {
	n := 0
	for _, s := range a.Spans {
		n += s.Hi - s.Lo
	}
	return n
}

// CoreCost is the per-core breakdown of an estimate.
type CoreCost struct {
	Core           int
	Seconds        float64
	ComputeSeconds float64
	MemSeconds     float64
	// LevelBytes[0..3] are bytes served by L1/L2/L3/DRAM for this core
	// (streaming plus gather traffic).
	LevelBytes [4]float64
	NNZ        int
	Rows       int
}

// Result is a full estimate.
type Result struct {
	// Seconds is the parallel makespan: max per-core time, raised to the
	// group-fabric and chip-DRAM floors when bandwidth binds.
	Seconds float64
	// PerCore holds one entry per assignment, in input order.
	PerCore []CoreCost
	// GFlops counts 2*nnz useful flops over Seconds.
	GFlops float64
	// DRAMBoundBy names which ceiling set the time: "core", "group" or
	// "chip"; useful in tests and the bandwidth experiments.
	BoundBy string
}

// EstimateSpMV prices one SpMV y = A*x executed with the given per-core
// assignment on machine m. Assignments must reference valid cores; spans
// must lie inside the matrix.
func EstimateSpMV(m *amp.Machine, p Params, a *sparse.CSR, asgs []Assignment) Result {
	nnzTotal := 0
	for _, asg := range asgs {
		nnzTotal += asg.NNZ()
	}
	activeP, activeE := 0, 0
	for _, asg := range asgs {
		g, _ := m.GroupOf(asg.Core)
		if g.Kind == amp.Performance {
			activeP++
		} else {
			activeE++
		}
	}

	res := Result{PerCore: make([]CoreCost, len(asgs))}
	xBytes := float64(a.Cols) * 8
	dramDemand := make([]float64, len(asgs)) // DRAM bytes per core

	// The x-gather hierarchies are reused across cores (Reset between) to
	// bound allocation; capacity is clamped to the x footprint since a
	// gather can never occupy more lines than x has.
	var hier *cachesim.Hierarchy
	var hierSizes [3]int

	for i, asg := range asgs {
		g, _ := m.GroupOf(asg.Core)
		cc := CoreCost{Core: asg.Core, NNZ: asg.NNZ()}

		// ---- compute term: walk rows, pricing Algorithm 6's paths.
		cycles := 0.0
		rows := 0
		for _, sp := range asg.Spans {
			cycles += spanComputeCycles(a, sp, g, p, &rows)
		}
		cc.Rows = rows
		cc.ComputeSeconds = cycles / (g.FreqGHz * 1e9)

		// ---- memory term.
		idxBytes := p.IdxBytes
		if asg.IdxBytes > 0 {
			idxBytes = asg.IdxBytes
		}
		streamBytes := float64(cc.NNZ*p.ValBytes + cc.NNZ*idxBytes + rows*(p.PtrBytes+8))
		caps := effectiveCaches(m, g, activeP, activeE)
		share := xShare(xBytes, streamBytes, caps)

		// Streaming waterfall over the stream share of each level.
		lvlBytes := waterfall(streamBytes, [3]float64{
			caps[0] * (1 - share),
			caps[1] * (1 - share),
			caps[2] * (1 - share),
		})

		// x-vector gathers through the LRU simulator over the x share.
		var xSizes [3]int
		for l := 0; l < 3; l++ {
			c := int(caps[l] * share)
			if max := int(xBytes) + 4096; c > max {
				c = max
			}
			xSizes[l] = c
		}
		if hier == nil || hierSizes != xSizes {
			hier = cachesim.NewHierarchy(m.CacheLineBytes, p.CacheWays[:], xSizes[:])
			hierSizes = xSizes
		} else {
			hier.Reset()
		}
		gatherLvl := replayGather(hier, a, asg.Spans, p.XGatherPasses)
		line := float64(m.CacheLineBytes)
		// An access served by level k moves one line from k; L1 hits move
		// the requested word only.
		lvlBytes[0] += float64(gatherLvl[0]) * 8
		lvlBytes[1] += float64(gatherLvl[1]) * line
		lvlBytes[2] += float64(gatherLvl[2]) * line
		lvlBytes[3] += float64(gatherLvl[3]) * line

		bpc := levelBPC(g, p)
		mem := 0.0
		for l := 0; l < 3; l++ {
			mem += lvlBytes[l] / (bpc[l] * g.FreqGHz * 1e9)
		}
		mem += lvlBytes[3] / (g.MemBWGBps * 1e9)
		cc.MemSeconds = mem
		cc.LevelBytes = lvlBytes
		dramDemand[i] = lvlBytes[3]

		// Compute and memory overlap on out-of-order cores; the longer
		// stream dominates.
		cc.Seconds = cc.ComputeSeconds
		if mem > cc.Seconds {
			cc.Seconds = mem
		}
		res.PerCore[i] = cc
	}

	res.Seconds, res.BoundBy = applyContention(m, p, asgs, res.PerCore, dramDemand, activeP, activeE)
	if res.Seconds > 0 {
		res.GFlops = 2 * float64(nnzTotal) / res.Seconds / 1e9
	}
	return res
}

// spanComputeCycles prices the kernel work of one span, counting each
// (partial) row as one kernel invocation.
func spanComputeCycles(a *sparse.CSR, sp Span, g *amp.CoreGroup, p Params, rows *int) float64 {
	if sp.Hi <= sp.Lo {
		return 0
	}
	if sp.Lo < 0 || sp.Hi > a.NNZ() {
		panic(fmt.Sprintf("costmodel: span [%d,%d) outside nnz %d", sp.Lo, sp.Hi, a.NNZ()))
	}
	// First row whose end exceeds Lo.
	r := sort.Search(a.Rows, func(i int) bool { return a.RowPtr[i+1] > sp.Lo }) // a.RowPtr[r] <= Lo < RowPtr[r+1]
	cycles := 0.0
	pos := sp.Lo
	for pos < sp.Hi {
		end := a.RowPtr[r+1]
		if end > sp.Hi {
			end = sp.Hi
		}
		l := end - pos
		if l > 0 {
			if l < p.ScalarRowThreshold {
				cycles += (float64(l) + p.OverheadCyclesScalar) / g.IPCScalar
			} else {
				cycles += float64(l)/float64(g.SIMDLanes) + p.OverheadCyclesSIMD/g.IPCScalar
			}
			*rows++
		}
		pos = end
		r++
	}
	return cycles
}

// effectiveCaches returns the per-core capacities [L1, L2, L3] available
// to one core of group g given how many cores of each group are active.
func effectiveCaches(m *amp.Machine, g *amp.CoreGroup, activeP, activeE int) [3]float64 {
	var caps [3]float64
	caps[0] = float64(g.L1DBytes)

	// L2 clusters: distribute this group's active cores over its
	// clusters and divide the cluster capacity.
	activeInGroup := activeP
	if g.Kind == amp.Efficiency {
		activeInGroup = activeE
	}
	if activeInGroup < 1 {
		activeInGroup = 1
	}
	clusters := g.Cores / g.L2SharedBy
	if clusters < 1 {
		clusters = 1
	}
	perCluster := (activeInGroup + clusters - 1) / clusters
	if perCluster > g.L2SharedBy {
		perCluster = g.L2SharedBy
	}
	if perCluster < 1 {
		perCluster = 1
	}
	caps[1] = float64(g.L2Bytes) / float64(perCluster)

	// L3: chip-wide pool on Intel (shared by every active core), per-CCD
	// on AMD (shared by the group's active cores). The x vector is shared
	// read-only data, so the division below is conservative for x but
	// right for the private streaming slices; xShare rebalances.
	sharers := activeInGroup
	if g.L3SharedWithOtherGroup {
		sharers = activeP + activeE
	}
	if sharers < 1 {
		sharers = 1
	}
	caps[2] = float64(g.L3Bytes) / float64(sharers)
	return caps
}

// xShare splits cache capacity between the shared x vector and the private
// streaming arrays, proportionally to their footprints at the L3 scale.
func xShare(xBytes, streamBytes float64, caps [3]float64) float64 {
	s := streamBytes
	if s > caps[2]*4 {
		s = caps[2] * 4 // streaming beyond any cache does not add pressure
	}
	if xBytes+s == 0 {
		return 0.5
	}
	share := xBytes / (xBytes + s)
	if share < 0.15 {
		share = 0.15
	}
	if share > 0.85 {
		share = 0.85
	}
	return share
}

// waterfall distributes a streaming footprint across cache levels: the
// portion fitting in L1 is served there on re-traversal, the next slice
// from L2, and so on; the remainder comes from DRAM. Returns bytes served
// per level [L1, L2, L3, DRAM].
func waterfall(footprint float64, caps [3]float64) [4]float64 {
	var out [4]float64
	prev := 0.0
	cum := 0.0
	for l := 0; l < 3; l++ {
		if caps[l] > cum {
			cum = caps[l]
		}
		served := footprint
		if served > cum {
			served = cum
		}
		out[l] = served - prev
		if out[l] < 0 {
			out[l] = 0
		}
		prev = served
	}
	out[3] = footprint - prev
	if out[3] < 0 {
		out[3] = 0
	}
	return out
}

// replayGather runs the x-access trace of the spans through the hierarchy,
// returning counts of accesses served per level [L1, L2, L3, DRAM] for the
// final pass.
func replayGather(h *cachesim.Hierarchy, a *sparse.CSR, spans []Span, passes int) [4]int64 {
	if passes < 1 {
		passes = 1
	}
	var counts [4]int64
	mem := h.MemoryLevel()
	for pass := 0; pass < passes; pass++ {
		last := pass == passes-1
		for _, sp := range spans {
			for k := sp.Lo; k < sp.Hi; k++ {
				lvl := h.Access(uint64(a.ColIdx[k]) * 8)
				if last {
					// Map a short hierarchy (skipped levels) onto the
					// 4-slot histogram: misses land in DRAM.
					if lvl >= mem {
						counts[3]++
					} else {
						counts[lvl]++
					}
				}
			}
		}
	}
	return counts
}

func levelBPC(g *amp.CoreGroup, _ Params) [3]float64 {
	return [3]float64{g.L1BPC, g.L2BPC, g.L3BPC}
}

// applyContention raises the makespan to the bandwidth floors: each
// group's DRAM traffic cannot drain faster than its fabric allows, and the
// chip total cannot exceed DRAM bandwidth (derated when both groups
// compete). Returns the final time and which constraint bound it.
func applyContention(m *amp.Machine, p Params, asgs []Assignment, costs []CoreCost, dramDemand []float64, activeP, activeE int) (float64, string) {
	t := 0.0
	for _, c := range costs {
		if c.Seconds > t {
			t = c.Seconds
		}
	}
	bound := "core"

	var groupDemand [2]float64
	total := 0.0
	for i, asg := range asgs {
		g, _ := m.GroupOf(asg.Core)
		if g.Kind == amp.Performance {
			groupDemand[0] += dramDemand[i]
		} else {
			groupDemand[1] += dramDemand[i]
		}
		total += dramDemand[i]
	}
	for gi := 0; gi < 2; gi++ {
		floor := groupDemand[gi] / (m.Groups[gi].GroupMemBWGBps * 1e9)
		if floor > t {
			t = floor
			bound = "group"
		}
	}
	chipBW := m.DRAMBWGBps
	if activeP > 0 && activeE > 0 && total > 0 {
		// Penalty scales with how balanced the two request streams are:
		// maximal when both groups drive half the traffic each.
		minShare := groupDemand[0] / total
		if 1-minShare < minShare {
			minShare = 1 - minShare
		}
		chipBW *= 1 - p.MixedGroupDRAMPenalty*2*minShare
	}
	if floor := total / (chipBW * 1e9); floor > t {
		t = floor
		bound = "chip"
	}
	return t, bound
}
