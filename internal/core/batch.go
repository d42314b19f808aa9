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

// batchScratch is the multiply workspace shared by Compute and
// ComputeBatch, pooled on Prepared.batch: a call claims it with an
// atomic swap and puts it back, so serial repeated multiplication is
// allocation-free, and concurrent calls on the same Prepared fall back
// to a fresh workspace. The extraY conflict values for all vectors of
// all cores live in one flat slice sized to nvCap, so a steady stream of
// calls with a stable (or shrinking) vector count allocates nothing.
type batchScratch struct {
	p    *Prepared
	Y, X [][]float64
	// y1 and x1 hold a single-vector Compute's y and x, so its one-vector
	// Y and X need no allocation.
	y1, x1 [1][]float64
	// batch marks a ComputeBatch call, which records "batch-core" spans
	// and the batch counters; a Compute call records "core" spans.
	batch bool
	// timed makes run time each slot: set when the call is traced (durNs
	// feeds the breakdown) or telemetry is active (tel records spans).
	timed    bool
	tel      *telemetry.Collector
	regs     []Region
	nvCap    int
	extraRow []int
	extraVal []float64 // len(regions)*nvCap, core id strided by nvCap
	// pending holds one rendezvous counter per region slot for the
	// segmented-sum parallel patch (indexed by the group head's slot);
	// counters are zero between calls (the patching member resets its
	// group's counter), so the pooled scratch needs no per-call sweep.
	pending []atomic.Int32
	// sums is the per-core kernel output block (len(regions)*MaxBlock,
	// strided by MaxBlock). It lives in the pooled scratch rather than on
	// run's stack so that passing it to the generic block kernels cannot
	// cost a per-call heap allocation.
	sums []float64
	// durNs is each slot's kernel time for a timed call — one plain store
	// per core, read by the traced path to surface the critical-path core.
	durNs []int64
	body  func(id int)
	// xi holds the call's interleaved x tiles: tile [v0, v0+w) of width
	// w >= kernel.MinBlock at xi[v0*cols:], xi[v0*cols+c*w+j] =
	// X[v0+j][c]. pack fills the first packed vectors' tiles before the
	// region bodies run (packed is 0 below MinBlock vectors); the buffer
	// is grown to packed*cols by the first call that packs that many.
	xi        []float64
	packed    int
	packParts int
	packBody  func(part int)
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
	s.packBody = s.pack
	return s
}

// packGrain is the fewest columns one part of the pack pass takes;
// below it the handoff costs more than the copy.
const packGrain = 512

// pack interleaves part of the columns of every packed tile: the
// parallel pass multiply runs before the region bodies, over packParts
// contiguous column ranges. Each column's w values are read from the w
// vectors and stored together as one tile line, so every line is
// written once.
func (s *batchScratch) pack(part int) {
	cols := s.p.mat.Cols
	lo, hi := part*cols/s.packParts, (part+1)*cols/s.packParts
	for v0 := 0; v0 < s.packed; v0 += kernel.MaxBlock {
		w := min(s.packed-v0, kernel.MaxBlock)
		tile := s.tile(v0, w)[lo*w : hi*w]
		xs := s.X[v0 : v0+w]
		if w == 8 {
			x0, x1, x2, x3 := xs[0][lo:hi], xs[1][lo:hi], xs[2][lo:hi], xs[3][lo:hi]
			x4, x5, x6, x7 := xs[4][lo:hi], xs[5][lo:hi], xs[6][lo:hi], xs[7][lo:hi]
			for c := range x0 {
				t := tile[c*8 : c*8+8]
				t[0], t[1], t[2], t[3] = x0[c], x1[c], x2[c], x3[c]
				t[4], t[5], t[6], t[7] = x4[c], x5[c], x6[c], x7[c]
			}
			continue
		}
		for c := lo; c < hi; c++ {
			t := tile[(c-lo)*w : (c-lo)*w+w]
			for j, x := range xs {
				t[j] = x[c]
			}
		}
	}
}

// tile returns the interleaved x tile of the vectors [v0, v0+w).
func (s *batchScratch) tile(v0, w int) []float64 {
	cols := s.p.mat.Cols
	return s.xi[v0*cols : (v0+w)*cols]
}

// tileWidth is the width of the tile that starts with rest vectors
// left: MaxBlock-wide tiles, then one MinBlock-wide tile, then one
// vector at a time. These are the widths with an assembly body (see
// kernel.SegSumBlock), so a 5–7-vector remainder runs as a 4-vector
// tile and 1–3 single vectors rather than through the Go block body.
func tileWidth(rest int) int {
	switch {
	case rest >= kernel.MaxBlock:
		return kernel.MaxBlock
	case rest >= kernel.MinBlock:
		return kernel.MinBlock
	}
	return 1
}

// run is one core's share of a multiply (the body Algorithm 5 gives
// each thread), plus optional span recording: nonzeros processed, row
// fragments walked, and whether this core produced an extraY entry. The
// region is walked once per tile of the vectors (tileWidth); the
// cut-row patch signals follow the last tile.
func (s *batchScratch) run(id int) {
	s.extraRow[id] = -1
	s.durNs[id] = 0
	reg := s.regs[id]
	if reg.Lo >= reg.Hi {
		return
	}
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	frags := 0
	for v0, w, nv := 0, 0, len(s.X); v0 < nv; v0 += w {
		w = tileWidth(nv - v0)
		f := batchRegion(s, id, reg, v0, w)
		if v0 == 0 {
			frags = f
		}
	}
	if reg.ContFirst >= 0 {
		s.extraRow[id] = -1 // the patch, not the epilogue, adds the slots
		s.patch(reg.ContFirst)
	}
	if reg.HeadLast >= 0 {
		s.patch(id)
	}
	nnzDone := reg.Hi - reg.Lo
	cNNZFormat[s.p.format()].Add(int64(nnzDone))
	if !s.timed {
		return
	}
	dur := time.Since(t0)
	s.durNs[id] = int64(dur)
	if tel := s.tel; tel != nil {
		ex := 0
		if reg.ContFirst >= 0 || s.extraRow[id] >= 0 {
			ex = 1
		}
		name := "core"
		if s.batch {
			name = "batch-core"
		}
		tel.RecordSpan(telemetry.Span{
			Name: name, Core: reg.Core,
			Start: t0.Sub(tel.Start()), Dur: dur,
			NNZ: nnzDone, Fragments: frags, ExtraY: ex,
		})
	}
}

// walkBatchFragments is the per-fragment walk of Algorithm 5 over
// reordered positions [lo, hi), starting at row r, for the vector tile
// [v0, v0+w): one dot product per row fragment and vector, stored
// directly when the fragment starts its row and into the core's conflict
// slots otherwise (only a region's first row can start mid-row). A
// width-1 tile takes the single-vector kernel (Dot) and stores its sums
// straight to y, wider tiles (kernel.MinBlock and up) the block one
// through sums (DotBlock on the tile's interleaved x); both produce
// Dot's bits. Returns the fragments processed.
func walkBatchFragments[C kernel.ColIndex](s *batchScratch, id, lo, hi, r, v0, w int, col []C) int {
	p := s.p
	h, vals := p.h, p.mat.Val
	Y := s.Y[v0 : v0+w]
	x, y := s.X[v0], Y[0]
	un := p.unroll[id]
	extra := s.extraVal[id*s.nvCap+v0 : id*s.nvCap+v0+w]
	sums := s.sums[id*kernel.MaxBlock : id*kernel.MaxBlock+w]
	frags := 0
	for pos := lo; pos < hi; r++ {
		rowStart, rowEnd := h.RowPtr[r], h.RowPtr[r+1]
		fragEnd := min(rowEnd, hi)
		if fragEnd <= pos {
			continue
		}
		o := h.RowBeginNNZ[r]
		klo, khi := o+(pos-rowStart), o+(fragEnd-rowStart)
		if w == 1 {
			sum := kernel.Dot(vals, col, x, klo, khi, un)
			if pos == rowStart {
				// This core owns the row's first fragment: direct store
				// (Algorithm 5's y[pl[id]] = kernel(...)).
				y[h.Perm[r]] = sum
			} else {
				s.extraRow[id] = h.Perm[r]
				extra[0] = sum
			}
		} else {
			kernel.DotBlock(vals, col, s.tile(v0, w), sums, klo, khi, un)
			orig := h.Perm[r]
			if pos == rowStart {
				for j, sum := range sums {
					Y[j][orig] = sum
				}
			} else {
				s.extraRow[id] = orig
				copy(extra, sums)
			}
		}
		frags++
		pos = fragEnd
	}
	return frags
}

// ComputeBatch performs Y[v] = A * X[v] for a block of vectors with one
// sweep over the matrix structure per block of kernel.MaxBlock vectors:
// each block's x vectors are interleaved once per call, so the block
// kernels (kernel.DotBlock) walk each region's value and column streams
// once per block and gather one x cache line per nonzero for all of the
// block's vectors — the x access is the traffic term that grows with the
// number of right-hand sides. It is the one multiply path: Compute runs
// it on a single vector. The steady-state path performs zero heap
// allocations for any nv (the workspace, interleaved tiles included, is
// pooled on Prepared.batch and exec.Parallel dispatches to a persistent
// worker pool).
//
// ComputeBatch is bit-exact with respect to Compute: Y[v] carries exactly
// the float64 bits that Compute(Y[v], X[v]) would have produced, for any
// nv. The block kernels keep per-vector accumulator chains identical to
// the single-vector dispatch, and the empty-row zeroing, direct stores,
// cut-row patch and serial extraY epilogue add in the same order. The
// serving layer's dynamic batcher relies on this to coalesce concurrent
// requests without changing any response.
func (p *Prepared) ComputeBatch(Y, X [][]float64) { p.ComputeBatchTraced(Y, X, nil) }

// ComputeBatchTraced is ComputeBatch plus the same stage breakdown
// ComputeTraced produces, with the batch's traffic priced at one
// structure sweep per register block of vectors. bd is caller-owned and
// reused (nil records none); the traced path allocates nothing beyond
// ComputeBatch.
func (p *Prepared) ComputeBatchTraced(Y, X [][]float64, bd *tracing.ComputeBreakdown) {
	nv := len(X)
	if len(Y) != nv {
		panic(fmt.Sprintf("core: batch size mismatch %d vs %d", len(Y), nv))
	}
	if nv == 0 {
		return
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
	p.multiply(p.claimScratch(nv), Y, X, true, bd)
}

// claimScratch takes the pooled workspace, or a fresh one when another
// call holds it or it is too narrow for nv vectors.
func (p *Prepared) claimScratch(nv int) *batchScratch {
	s := p.batch.Swap(nil)
	if s == nil || s.nvCap < nv {
		s = p.newBatchScratch(nv)
	}
	return s
}

// multiply runs Y[v] = A * X[v] on the claimed workspace s and returns
// it to the pool: Algorithm 5's parallel region bodies, then its serial
// extraY epilogue. batch selects ComputeBatch's span name, phase and
// counters over Compute's.
func (p *Prepared) multiply(s *batchScratch, Y, X [][]float64, batch bool, bd *tracing.ComputeBreakdown) {
	tel := telemetry.Active()
	timed := tel != nil || bd != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	nv := len(X)
	// One regions snapshot per call: every worker of this multiply walks
	// the same tiling even if Repartition swaps the partition mid-flight.
	s.Y, s.X, s.batch, s.timed, s.tel, s.regs = Y, X, batch, timed, tel, *p.regions.Load()
	// No fragment walk visits an empty row, so they are zeroed here.
	// When they are most of the rows (zipf) one clear per vector beats
	// the scattered stores; every other row gets its direct store anyway.
	for _, y := range Y {
		if 2*len(p.emptyRows) > len(y) {
			clear(y)
		} else {
			zeroRows(y, p.emptyRows)
		}
	}
	// Every tile of MinBlock or more vectors is interleaved; the single
	// vectors after them read x directly.
	s.packed = 0
	for s.packed < nv && tileWidth(nv-s.packed) > 1 {
		s.packed += tileWidth(nv - s.packed)
	}
	if s.packed > 0 {
		if need := s.packed * p.mat.Cols; len(s.xi) < need {
			s.xi = make([]float64, need)
		}
		s.packParts = exec.RangeChunks(p.mat.Cols, exec.Workers(), packGrain)
		exec.Parallel(s.packParts, s.packBody)
	}
	n := len(s.regs)
	exec.Parallel(n, s.body)
	var tKernel time.Time
	if bd != nil {
		tKernel = time.Now()
	}
	// Serial epilogue (Algorithm 5 lines 15-17) across the vectors.
	for id := 0; id < n; id++ {
		if r := s.extraRow[id]; r >= 0 {
			extra := s.extraVal[id*s.nvCap:]
			for v, y := range Y {
				y[r] += extra[v]
			}
		}
	}
	if bd != nil {
		// The executor-side fields of a traced multiply: stage split,
		// fan-out width, critical-path core, per-format nonzero split and
		// the modeled traffic of the call.
		bd.KernelNs = int64(tKernel.Sub(t0))
		bd.MergeNs = int64(time.Since(tKernel))
		bd.Cores = n
		bd.MaxCoreNs = 0
		bd.NNZByFormat = [4]int64{}
		bd.NNZByFormat[p.format()] = int64(p.mat.NNZ())
		for i := range s.regs {
			bd.MaxCoreNs = max(bd.MaxCoreNs, s.durNs[i])
		}
		bd.Bytes = p.batchTrafficBytes(nv, s.packed)
	}
	s.Y, s.X, s.tel, s.regs = nil, nil, nil, nil
	s.y1[0], s.x1[0] = nil, nil
	p.batch.Store(s)
	if batch {
		cBatchComputes.Add(1)
		cBatchVectors.Add(int64(nv))
	} else {
		cComputes.Add(1)
	}
	if tel != nil {
		d := time.Since(t0)
		if batch {
			tel.RecordPhase(telemetry.PhaseBatch, d)
		} else {
			tel.RecordPhase(telemetry.PhaseCompute, d)
			computeHist.Observe(d)
		}
		p.recordBandwidth(p.batchTrafficBytes(nv, s.packed), d)
	}
}

// zeroRows stores 0 to y[r] for every r in rows: the empty rows, which
// no fragment walk visits. It stays out of line because, inlined into
// multiply, the loop index spills to the stack on every row (go1.24),
// which shows on matrices with many empty rows.
//
//go:noinline
func zeroRows(y []float64, rows []int) {
	for _, r := range rows {
		y[r] = 0
	}
}
