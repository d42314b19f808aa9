package core

import (
	"fmt"
	"math"
	"time"

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
// lives inside kernel.SegSum*), and rows cut across cores are resolved
// by a *parallel patch* — the last core of a cut-row group to finish
// adds the group's fragments into the destination row, coordinated by
// one atomic counter per group, so no serial section remains.
//
// Everything here is bit-exact with the serial-epilogue path: the
// segmented kernels reuse DotRange's dispatch thresholds and
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

// runSegSum is one core's share of a Compute call in segmented mode:
// an optional leading continuation fragment, the interior whole rows
// from the descriptor stream, an optional direct-stored trailing
// fragment of a cut row this region heads, then the group patch
// signals. The caller has already reset extraRow/durNs and rejected
// empty regions.
func (s *computeScratch) runSegSum(id int, reg Region) {
	p := s.p
	tel := s.tel
	t0 := time.Now()
	h, mat, y, x := p.h, p.mat, s.y, s.x
	st := &p.streams
	un := p.unroll[id]
	frags := 0
	r0, r1 := reg.StartRow, reg.EndRow
	// Leading continuation: the region starts mid-row, so its partial
	// sum is a fragment — patched in parallel when the whole group is
	// segmented, merged by the serial epilogue otherwise.
	if reg.Lo > h.RowPtr[r0] {
		rowStart := h.RowPtr[r0]
		fragEnd := h.RowPtr[r0+1]
		if fragEnd > reg.Hi {
			fragEnd = reg.Hi
		}
		o := h.RowBeginNNZ[r0]
		klo, khi := o+(reg.Lo-rowStart), o+(fragEnd-rowStart)
		s.extraVal[id] = p.dotFragment(reg.Format, reg.Val, r0, klo, khi, un, x)
		if !reg.PatchCont {
			s.extraRow[id] = h.Perm[r0]
		}
		frags++
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
		// Interior rows always stream the f64 values (bit-identical under
		// a palette). A diagonal region's interior runs on the u32 stream
		// — descriptors amortize over long rows, segmented regions are
		// short-row by selection.
		segs := p.segs[r0 : rLast+1]
		switch reg.Format {
		case Index32, IndexDia:
			frags += kernel.SegSum32(mat.Val, st.col32, x, y, segs, un)
		case Index16:
			frags += kernel.SegSum16Delta(mat.Val, st.col16, st.rowBase[r0:rLast+1], x, y, segs, un)
		default:
			frags += kernel.SegSum(mat.Val, mat.ColIdx, x, y, segs, un)
		}
	}
	if tailClip {
		o := h.RowBeginNNZ[r1]
		khi := o + (reg.Hi - h.RowPtr[r1])
		// This region owns the cut row's first fragment: direct store,
		// exactly like the serial walk's pos==rowStart arm. The patch
		// (or the epilogue) adds the continuations on top.
		y[h.Perm[r1]] = p.dotFragment(reg.Format, reg.Val, r1, o, khi, un, x)
		frags++
	}
	if reg.PatchCont {
		s.patch(reg.ContFirst)
	}
	if reg.PatchHead {
		s.patch(id)
	}
	nnzDone := reg.Hi - reg.Lo
	dur := time.Since(t0)
	p.accum[id].ns.Add(int64(dur))
	p.accum[id].nnz.Add(int64(nnzDone))
	s.durNs[id] = int64(dur)
	cNNZFormat[reg.Format].Add(int64(nnzDone))
	cNNZValue[reg.Val].Add(int64(nnzDone))
	if tel != nil {
		extra := 0
		if reg.PatchCont || s.extraRow[id] >= 0 {
			extra = 1
		}
		tel.RecordSpan(telemetry.Span{
			Name: "core", Core: reg.Core,
			Start: t0.Sub(tel.Start()), Dur: dur,
			NNZ: nnzDone, Fragments: frags, ExtraY: extra,
		})
	}
}

// patch is the parallel cut-row rendezvous for group g (the head
// region's slot). Every non-empty member signals once after its writes;
// the member whose signal completes the group adds all continuation
// fragments into the destination row in ascending region order — the
// same left-associated chain the serial epilogue would have produced —
// then resets the counter for the next call on this pooled scratch.
// The atomic counter's RMW chain orders every member's plain writes
// before the patcher's reads.
func (s *computeScratch) patch(g int) {
	regs := s.regs
	if int(s.pending[g].Add(1)) != regs[g].HeadSpan {
		return
	}
	s.pending[g].Store(0)
	dst := s.p.h.Perm[regs[g].EndRow]
	v := s.y[dst]
	for id := g + 1; id <= regs[g].HeadLast; id++ {
		if regs[id].Lo < regs[id].Hi {
			v += s.extraVal[id]
		}
	}
	s.y[dst] = v
}

// runSegSum is the batch analogue: the same fragment skeleton with
// every piece widened to the register-blocked kernels, tiled MaxBlock
// vectors at a time (a width-1 tile takes the single-vector path, as
// ComputeBatch's fragment walk does).
func (s *batchScratch) runSegSum(id int, reg Region) {
	p := s.p
	tel := s.tel
	t0 := time.Now()
	h, mat, Y, X, nv := p.h, p.mat, s.Y, s.X, s.nv
	st := &p.streams
	un := p.unroll[id]
	extra := s.extraVal[id*s.nvCap : id*s.nvCap+nv]
	sums := s.sums[id*kernel.MaxBlock : (id+1)*kernel.MaxBlock]
	frags := 0
	r0, r1 := reg.StartRow, reg.EndRow
	if reg.Lo > h.RowPtr[r0] {
		rowStart := h.RowPtr[r0]
		fragEnd := h.RowPtr[r0+1]
		if fragEnd > reg.Hi {
			fragEnd = reg.Hi
		}
		o := h.RowBeginNNZ[r0]
		klo, khi := o+(reg.Lo-rowStart), o+(fragEnd-rowStart)
		for v0 := 0; v0 < nv; {
			w := nv - v0
			if w > kernel.MaxBlock {
				w = kernel.MaxBlock
			}
			if w == 1 {
				sums[0] = p.dotFragment(reg.Format, reg.Val, r0, klo, khi, un, X[v0])
			} else {
				p.dotFragmentBlock(reg.Format, reg.Val, r0, klo, khi, un, X[v0:], sums[:w])
			}
			copy(extra[v0:v0+w], sums[:w])
			v0 += w
		}
		if !reg.PatchCont {
			s.extraRow[id] = h.Perm[r0]
		}
		frags++
		r0++
	}
	tailClip := r0 <= r1 && reg.Hi < h.RowPtr[r1+1]
	rLast := r1
	if tailClip {
		rLast = r1 - 1
	}
	if r0 <= rLast {
		segs := p.segs[r0 : rLast+1]
		for v0 := 0; v0 < nv; {
			w := nv - v0
			if w > kernel.MaxBlock {
				w = kernel.MaxBlock
			}
			var done int
			switch reg.Format {
			case Index32, IndexDia:
				done = kernel.SegSumBlock32(mat.Val, st.col32, X[v0:], Y[v0:], sums[:w], segs, un)
			case Index16:
				done = kernel.SegSumBlock16Delta(mat.Val, st.col16, st.rowBase[r0:rLast+1], X[v0:], Y[v0:], sums[:w], segs, un)
			default:
				done = kernel.SegSumBlock(mat.Val, mat.ColIdx, X[v0:], Y[v0:], sums[:w], segs, un)
			}
			if v0 == 0 {
				frags += done
			}
			v0 += w
		}
	}
	if tailClip {
		o := h.RowBeginNNZ[r1]
		khi := o + (reg.Hi - h.RowPtr[r1])
		orig := h.Perm[r1]
		for v0 := 0; v0 < nv; {
			w := nv - v0
			if w > kernel.MaxBlock {
				w = kernel.MaxBlock
			}
			if w == 1 {
				sums[0] = p.dotFragment(reg.Format, reg.Val, r1, o, khi, un, X[v0])
			} else {
				p.dotFragmentBlock(reg.Format, reg.Val, r1, o, khi, un, X[v0:], sums[:w])
			}
			for j := 0; j < w; j++ {
				Y[v0+j][orig] = sums[j]
			}
			v0 += w
		}
		frags++
	}
	if reg.PatchCont {
		s.patch(reg.ContFirst)
	}
	if reg.PatchHead {
		s.patch(id)
	}
	nnzDone := reg.Hi - reg.Lo
	dur := time.Since(t0)
	p.accum[id].ns.Add(int64(dur))
	p.accum[id].nnz.Add(int64(nnzDone))
	s.durNs[id] = int64(dur)
	cNNZFormat[reg.Format].Add(int64(nnzDone))
	cNNZValue[reg.Val].Add(int64(nnzDone))
	if tel != nil {
		ex := 0
		if reg.PatchCont || s.extraRow[id] >= 0 {
			ex = 1
		}
		tel.RecordSpan(telemetry.Span{
			Name: "batch-core", Core: reg.Core,
			Start: t0.Sub(tel.Start()), Dur: dur,
			NNZ: nnzDone, Fragments: frags, ExtraY: ex,
		})
	}
}

// patch is the batch-call group rendezvous: per vector, the same
// ascending-region chain as the batched serial epilogue's per-element
// order, so Y[v] carries identical bits either way.
func (s *batchScratch) patch(g int) {
	regs := s.regs
	if int(s.pending[g].Add(1)) != regs[g].HeadSpan {
		return
	}
	s.pending[g].Store(0)
	dst := s.p.h.Perm[regs[g].EndRow]
	nv, nvCap := s.nv, s.nvCap
	for v := 0; v < nv; v++ {
		val := s.Y[v][dst]
		for id := g + 1; id <= regs[g].HeadLast; id++ {
			if regs[id].Lo < regs[id].Hi {
				val += s.extraVal[id*nvCap+v]
			}
		}
		s.Y[v][dst] = val
	}
}
