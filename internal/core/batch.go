package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"haspmv/internal/exec"
	"haspmv/internal/kernel"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

var (
	cBatchComputes = telemetry.NewCounter("core_batch_computes")
	cBatchVectors  = telemetry.NewCounter("core_batch_vectors")
)

// batchScratch is ComputeBatch's reusable workspace, pooled on
// Prepared.batch under the same atomic-swap discipline as computeScratch.
// The extraY conflict values for all vectors of all cores live in one
// flat slice sized to nvCap, so a steady stream of batch calls with a
// stable (or shrinking) vector count allocates nothing.
type batchScratch struct {
	p        *Prepared
	Y, X     [][]float64
	tel      *telemetry.Collector
	regs     []Region
	nv       int
	nvCap    int
	extraRow []int
	extraVal []float64 // len(regions)*nvCap, core id strided by nvCap
	// pending holds the segmented-sum patch rendezvous counters (see
	// computeScratch.pending).
	pending []atomic.Int32
	// sums is the per-core kernel output block (len(regions)*MaxBlock,
	// strided by MaxBlock). It lives in the pooled scratch rather than on
	// run's stack so that passing it to the generic block kernels cannot
	// cost a per-call heap allocation.
	sums []float64
	// durNs is each slot's kernel time for the current call (see
	// computeScratch.durNs).
	durNs []int64
	body  func(id int)
}

func (p *Prepared) newBatchScratch(nv int) *batchScratch {
	// Round the capacity up to a whole number of register blocks so
	// growing a batch by one vector does not immediately reallocate.
	cap := (nv + kernel.MaxBlock - 1) / kernel.MaxBlock * kernel.MaxBlock
	n := len(*p.regions.Load())
	s := &batchScratch{
		p:        p,
		nvCap:    cap,
		extraRow: make([]int, n),
		extraVal: make([]float64, n*cap),
		pending:  make([]atomic.Int32, n),
		sums:     make([]float64, n*kernel.MaxBlock),
		durNs:    make([]int64, n),
	}
	s.body = s.run
	return s
}

// run is one core's share of a batch call: the same fragment walk as
// computeScratch.run, with each fragment's index stream walked once by
// the widest register-blocked kernel that still has vectors to feed.
func (s *batchScratch) run(id int) {
	p := s.p
	s.extraRow[id] = -1
	s.durNs[id] = 0
	reg := s.regs[id]
	if reg.Lo >= reg.Hi {
		return
	}
	tel := s.tel
	t0 := time.Now()
	var frags int
	if reg.Val == ValF64 {
		frags = batchRegion(s, id, reg, p.mat.Val, nil)
	} else {
		frags = batchRegion(s, id, reg, p.values.palIdx, p.values.tab)
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

// walkBatchFragments is walkFragments over the vector block: each
// fragment's streams are walked once per MaxBlock-wide tile of the
// block by the register-blocked kernel (a width-1 tile takes the
// single-vector kernel), and sums[j] carries exactly the bits a
// single-vector Compute would produce. Returns the fragments processed.
func walkBatchFragments[V kernel.ValSource, C kernel.ColIndex](s *batchScratch, id int, reg Region, lo, hi, r int, vals []V, pal *[PaletteMax]float64, col []C, bases []int) int {
	p := s.p
	h, st, Y, X, nv := p.h, &p.streams, s.Y, s.X, s.nv
	dia := reg.Format == IndexDia
	un := p.unroll[id]
	extra := s.extraVal[id*s.nvCap : id*s.nvCap+nv]
	sums := s.sums[id*kernel.MaxBlock : (id+1)*kernel.MaxBlock]
	frags := 0
	for pos := lo; pos < hi; r++ {
		rowStart, rowEnd := h.RowPtr[r], h.RowPtr[r+1]
		fragEnd := min(rowEnd, hi)
		if fragEnd <= pos {
			continue
		}
		o := h.RowBeginNNZ[r]
		klo, khi := o+(pos-rowStart), o+(fragEnd-rowStart)
		orig := h.Perm[r]
		first := pos == rowStart
		diaRow := dia && st.rowRun[r+1] > st.rowRun[r]
		base := 0
		if bases != nil {
			base = bases[r]
		}
		for v0 := 0; v0 < nv; {
			w := min(nv-v0, kernel.MaxBlock)
			switch {
			case diaRow && w == 1:
				sums[0] = kernel.DotDia(vals, pal, st.runs, int(st.rowRun[r]), X[v0], klo, khi, un)
			case diaRow:
				kernel.DotDiaBlock(vals, pal, st.runs, int(st.rowRun[r]), X[v0:], sums[:w], klo, khi, un)
			case w == 1:
				sums[0] = kernel.Dot(vals, pal, col, base, X[v0], klo, khi, un)
			default:
				kernel.DotBlock(vals, pal, col, base, X[v0:], sums[:w], klo, khi, un)
			}
			if first {
				for j := 0; j < w; j++ {
					Y[v0+j][orig] = sums[j]
				}
			} else {
				copy(extra[v0:v0+w], sums[:w])
			}
			v0 += w
		}
		if !first {
			// Continuation fragment: only the first row of a region can
			// start mid-row, so one conflict slot per core.
			s.extraRow[id] = orig
		}
		frags++
		pos = fragEnd
	}
	return frags
}

// ComputeBatch performs Y[v] = A * X[v] for a block of vectors with one
// sweep over the matrix structure: each row fragment's value and column
// streams are walked once per block of kernel.MaxBlock vectors by the
// register-blocked kernels (kernel.DotBlock), amortizing the index stream
// the way block Krylov solvers and multi-source graph traversals expect.
// The partition, reorder and extraY conflict handling are identical to
// Compute (Algorithm 5), generalized to a vector block, and the
// steady-state path performs zero heap allocations for any nv (the
// workspace is pooled on Prepared.batch).
//
// ComputeBatch is bit-exact with respect to Compute: Y[v] carries exactly
// the float64 bits that Compute(Y[v], X[v]) would have produced, for any
// nv. The fused kernel keeps per-vector accumulator chains identical to
// the single-vector dispatch, and the empty-row zeroing, direct stores
// and serial extraY epilogue run in the same order. The serving layer's
// dynamic batcher relies on this to coalesce concurrent requests without
// changing any response.
func (p *Prepared) ComputeBatch(Y, X [][]float64) { p.computeBatchWith(Y, X, nil) }

// ComputeBatchTraced is ComputeBatch plus the same stage breakdown
// ComputeTraced produces, with the batch's traffic priced at one
// structure sweep per register block of vectors. bd is caller-owned and
// reused; the traced path allocates nothing beyond ComputeBatch.
func (p *Prepared) ComputeBatchTraced(Y, X [][]float64, bd *tracing.ComputeBreakdown) {
	p.computeBatchWith(Y, X, bd)
}

func (p *Prepared) computeBatchWith(Y, X [][]float64, bd *tracing.ComputeBreakdown) {
	nv := len(X)
	if len(Y) != nv {
		panic(fmt.Sprintf("core: batch size mismatch %d vs %d", len(Y), nv))
	}
	if nv == 0 {
		return
	}
	tel := telemetry.Active()
	var tBatch time.Time
	if tel != nil || bd != nil {
		tBatch = time.Now()
	}
	for _, x := range X {
		if len(x) != p.mat.Cols {
			panic(fmt.Sprintf("core: batch x length %d, want %d", len(x), p.mat.Cols))
		}
	}
	for _, y := range Y {
		if len(y) != p.mat.Rows {
			panic(fmt.Sprintf("core: batch y length %d, want %d", len(y), p.mat.Rows))
		}
	}
	s := p.batch.Swap(nil)
	if s == nil || s.nvCap < nv {
		s = p.newBatchScratch(nv)
	}
	s.Y, s.X, s.tel, s.nv, s.regs = Y, X, tel, nv, *p.regions.Load()
	for _, r := range p.emptyRows {
		for v := 0; v < nv; v++ {
			Y[v][r] = 0
		}
	}
	n := len(s.regs)
	exec.Parallel(n, s.body)
	var tKernel time.Time
	if bd != nil {
		tKernel = time.Now()
	}
	// Serial epilogue (Algorithm 5 lines 15-17) across the vector block.
	for id := 0; id < n; id++ {
		if s.extraRow[id] >= 0 {
			extra := s.extraVal[id*s.nvCap:]
			for v := 0; v < nv; v++ {
				Y[v][s.extraRow[id]] += extra[v]
			}
		}
	}
	if bd != nil {
		bd.KernelNs = int64(tKernel.Sub(tBatch))
		bd.MergeNs = int64(time.Since(tKernel))
		p.fillBreakdown(bd, s.regs, s.durNs, p.batchTrafficBytes(nv))
	}
	s.Y, s.X, s.tel, s.regs = nil, nil, nil, nil
	p.batch.Store(s)
	cBatchComputes.Add(1)
	cBatchVectors.Add(int64(nv))
	if tel != nil {
		d := time.Since(tBatch)
		tel.RecordPhase(telemetry.PhaseBatch, d)
		p.recordBandwidth(p.batchTrafficBytes(nv), d)
	}
}
