package core

import (
	"fmt"
	"math"

	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/kernel"
	"haspmv/internal/telemetry"
)

// Speculative segmented-sum execution (Liu & Vinter, arXiv:1504.06474,
// grafted onto the HACSR partition). The classic HASpMV Compute has two
// scalability hazards on power-law matrices: the serial extraY epilogue
// grows with every row cut across cores — one mega-row split over many
// cores serializes its merge no matter how well nnz is balanced — and
// the per-row fragment walk pays a kernel call plus four metadata loads
// per row, which dominates when the typical row holds a handful of
// nonzeros. Segmented execution removes both: each core runs its whole
// interior rows from a flat 12-byte descriptor stream (the row loop
// lives inside kernel.SegSum), and rows cut across cores are resolved
// by a *parallel patch* — the last core of a cut-row group to finish
// adds the group's fragments into the destination row, coordinated by
// one atomic counter per group, so no serial section remains.
//
// Everything here is bit-exact with the serial-epilogue path: the
// segmented kernels reuse Dot's dispatch thresholds and
// accumulator chains, and the patch adds a group's fragments in the
// same ascending-region order the serial epilogue would have used, so
// the float64 sums associate identically. The fuzz bit-equality stage
// pins the two modes against each other (including after Repartition).

// ExecMode selects how Compute/ComputeBatch resolve rows cut across
// cores. The zero value is the dispatching default.
type ExecMode int

const (
	// ExecAuto picks per region: segmented when the matrix-level row
	// skew predicts the epilogue or the per-row walk overhead dominates
	// (costmodel.RowSkew.PreferSegSum), serial otherwise.
	ExecAuto ExecMode = iota
	// ExecSerial forces the classic per-fragment walk with the serial
	// extraY epilogue everywhere — the oracle the fuzz stage compares
	// against.
	ExecSerial
	// ExecSegSum forces segmented-sum execution on every region (cut-row
	// groups are always parallel-patched; the epilogue has nothing to
	// do).
	ExecSegSum
)

func (m ExecMode) String() string {
	switch m {
	case ExecAuto:
		return "auto"
	case ExecSerial:
		return "serial"
	case ExecSegSum:
		return "segsum"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// gNNZSegSum tracks the nonzeros assigned to segmented execution in the
// live partition, next to the per-format gauges.
var gNNZSegSum = telemetry.NewGauge("core_partition_nnz_segsum")

// autoSegSumMeanRow is the region mean-row-length ceiling under which
// ExecAuto prefers the descriptor walk: at a few nonzeros per row the
// fragment walk's per-row overhead is comparable to the dot product
// itself, which is exactly what the segmented kernels amortize away.
const autoSegSumMeanRow = 32

// buildSegments materializes the per-row descriptor stream when the
// selected mode can use it. Descriptors are global (one per reordered
// row, in original-nnz space), so Repartition never rebuilds them — a
// boundary move only changes which rows are interior vs cut, which
// assignModes re-derives. The int32 fields gate segmented execution to
// matrices under 2^31 nonzeros and rows.
func (p *Prepared) buildSegments() {
	if p.opts.Exec == ExecSerial {
		return
	}
	h := p.h
	if h.NNZ() > math.MaxInt32 || h.Rows > math.MaxInt32 {
		return
	}
	if p.opts.Exec == ExecAuto && !p.skew.PreferSegSum(len(p.cores)) {
		return
	}
	segs := make([]kernel.Segment, h.Rows)
	exec.ParallelRanges(h.Rows, prepWidth(), prepGrain, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			o := h.RowBeginNNZ[r]
			segs[r] = kernel.Segment{K0: int32(o), K1: int32(o + h.RowLen(r)), Dst: int32(h.Perm[r])}
		}
	})
	p.segs = segs
}

// assignModes stamps every region's execution mode and cut-row group
// bookkeeping. Like assignFormats it runs at Prepare and after every
// Repartition, before the regions slice is published, so a boundary
// move re-picks the mode exactly the way it re-picks the index format.
//
// A cut-row *group* is the head region (the one owning the cut row's
// first fragment) plus every region whose leading fragment continues
// that row. The group is parallel-patched iff all its non-empty members
// run segmented; otherwise its continuations fall back to the extraY
// slots and the serial epilogue resolves them as before (mixed groups
// under ExecAuto stay correct either way, just not patched).
func (p *Prepared) assignModes(regions []Region) {
	h := p.h
	for i := range regions {
		r := &regions[i]
		r.SegSum = false
		r.ContFirst, r.HeadLast, r.HeadSpan = -1, -1, 0
		r.PatchCont, r.PatchHead = false, false
		if r.Lo < r.Hi {
			r.EndRow = rowOfPosition(h, r.Hi-1)
		} else {
			r.EndRow = r.StartRow
		}
	}
	if p.segs == nil {
		gNNZSegSum.Set(0)
		return
	}
	n := len(regions)
	// Group scan: for every head whose last row is cut, chain the
	// continuation regions and count the non-empty members (the patch
	// rendezvous count; empty members never signal).
	for i := 0; i < n; i++ {
		ri := &regions[i]
		if ri.Lo >= ri.Hi {
			continue
		}
		rowEnd := h.RowPtr[ri.EndRow+1]
		if ri.Hi >= rowEnd || ri.Lo > h.RowPtr[ri.EndRow] {
			continue // last row not cut, or this region is itself a continuation
		}
		span, last := 1, i
		for j := i + 1; j < n && regions[j].Lo < rowEnd; j++ {
			last = j
			if regions[j].Lo < regions[j].Hi {
				regions[j].ContFirst = i
				span++
				if regions[j].Hi >= rowEnd {
					break
				}
			}
		}
		ri.HeadLast, ri.HeadSpan = last, span
	}
	// Mode per region: forced, or the auto predicate — short typical
	// rows (the descriptor walk amortizes the per-row overhead) or
	// cut-row group membership (the parallel patch removes the serial
	// merge).
	for i := range regions {
		r := &regions[i]
		if p.opts.Exec == ExecSegSum {
			r.SegSum = true
			continue
		}
		if r.Lo >= r.Hi {
			continue
		}
		mean := float64(r.Hi-r.Lo) / float64(r.EndRow-r.StartRow+1)
		r.SegSum = mean <= autoSegSumMeanRow || r.ContFirst >= 0 || r.HeadLast >= 0
	}
	// Patch flags: a group rendezvouses in parallel only when every
	// non-empty member runs segmented.
	var segNNZ int64
	for i := range regions {
		ri := &regions[i]
		if ri.SegSum {
			segNNZ += int64(ri.Hi - ri.Lo)
		}
		if ri.HeadLast < 0 {
			continue
		}
		all := true
		for j := i; j <= ri.HeadLast; j++ {
			if regions[j].Lo < regions[j].Hi && !regions[j].SegSum {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		ri.PatchHead = true
		for j := i + 1; j <= ri.HeadLast; j++ {
			if regions[j].Lo < regions[j].Hi && regions[j].ContFirst == i {
				regions[j].PatchCont = true
			}
		}
	}
	gNNZSegSum.Set(segNNZ)
}

// RowSkew returns the row-length skew statistics Prepare computed for
// the execution-mode dispatch.
func (p *Prepared) RowSkew() costmodel.RowSkew { return p.skew }

// SegSumNNZ returns the nonzeros assigned to segmented-sum execution in
// the live partition (0 while the mode is off everywhere).
func (p *Prepared) SegSumNNZ() int64 {
	var n int64
	for _, r := range *p.regions.Load() {
		if r.SegSum {
			n += int64(r.Hi - r.Lo)
		}
	}
	return n
}

// batchSegSumRegion is one core's share of a multiply in segmented
// mode, for the vector tile [v0, v0+w): an optional leading continuation
// fragment, the interior whole rows from the descriptor stream, then an
// optional direct-stored trailing fragment of a cut row this region
// heads. It returns the fragments (rows) processed. The caller has
// already reset extraRow/durNs, rejected empty regions, and sends the
// group patch signals after the last tile.
func batchSegSumRegion[C kernel.ColIndex](s *batchScratch, id int, reg Region, v0, w int, col []C) int {
	p := s.p
	h := p.h
	frags := 0
	r0, r1 := reg.StartRow, reg.EndRow
	// Leading continuation: the region starts mid-row, so its partial
	// sum is a fragment — patched in parallel when the whole group is
	// segmented, merged by the serial epilogue otherwise.
	if reg.Lo > h.RowPtr[r0] {
		frags += walkBatchFragments(s, id, reg, reg.Lo, min(h.RowPtr[r0+1], reg.Hi), r0, v0, w, col)
		r0++
	}
	// Trailing fragment exists when the region's last row continues
	// into the next region (and was not already consumed as the leading
	// fragment above).
	tailClip := r0 <= r1 && reg.Hi < h.RowPtr[r1+1]
	rLast := r1
	if tailClip {
		rLast = r1 - 1
	}
	if r0 <= rLast {
		segs := p.segs[r0 : rLast+1]
		if w == 1 {
			frags += kernel.SegSum(p.mat.Val, col, s.X[v0], s.Y[v0], segs, p.unroll[id])
		} else {
			sums := s.sums[id*kernel.MaxBlock : id*kernel.MaxBlock+w]
			frags += kernel.SegSumBlock(p.mat.Val, col, s.tile(v0, w), s.Y[v0:], sums, segs, p.unroll[id])
		}
	}
	if tailClip {
		// This region owns the cut row's first fragment: direct store,
		// exactly like the fragment walk's pos==rowStart arm. The patch
		// (or the epilogue) adds the continuations on top.
		frags += walkBatchFragments(s, id, reg, h.RowPtr[r1], reg.Hi, r1, v0, w, col)
	}
	return frags
}

// patch is the parallel cut-row rendezvous for group g (the head
// region's slot). Every non-empty member signals once after its writes;
// the member whose signal completes the group adds all continuation
// fragments into the destination row in ascending region order, per
// vector — the same left-associated chain the serial epilogue would have
// produced — then resets the counter for the next call on this pooled
// scratch. The atomic counter's RMW chain orders every member's plain
// writes before the patcher's reads.
func (s *batchScratch) patch(g int) {
	regs := s.regs
	if int(s.pending[g].Add(1)) != regs[g].HeadSpan {
		return
	}
	s.pending[g].Store(0)
	dst := s.p.h.Perm[regs[g].EndRow]
	for v, y := range s.Y {
		val := y[dst]
		for id := g + 1; id <= regs[g].HeadLast; id++ {
			if regs[id].Lo < regs[id].Hi {
				val += s.extraVal[id*s.nvCap+v]
			}
		}
		y[dst] = val
	}
}
