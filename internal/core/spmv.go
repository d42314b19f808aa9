package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/kernel"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

// HASpMV pipeline telemetry (no-ops while telemetry is disabled).
var (
	cPrepares   = telemetry.NewCounter("core_prepares")
	cComputes   = telemetry.NewCounter("core_computes")
	gRegions    = telemetry.NewGauge("core_regions")
	computeHist = telemetry.NewHistogram("core_compute")
	prepareHist = telemetry.NewHistogram("core_prepare")
	// Roofline instrumentation: the last multiply's achieved bandwidth
	// (modeled traffic over measured wall time), the calibrated
	// stream-triad DRAM peak it is chasing, and their ratio in percent.
	gEffBandwidth = telemetry.NewGauge("core_effective_bandwidth_mbps")
	gTriadPeak    = telemetry.NewGauge("core_triad_peak_mbps")
	gRoofline     = telemetry.NewGauge("core_roofline_pct")
)

// triadElems sizes the roofline calibration run: 64M float64 elements
// (three 512 MB streams) is far past every modeled cache, so EstimateTriad
// reports the DRAM-bound plateau of the paper's Figure 3 sweep.
const triadElems = 64_000_000

// Options configure HASpMV. The zero value selects the paper's defaults:
// both core groups, auto-calibrated P proportion and base threshold,
// cache-line cost partitioning, reordering enabled.
type Options struct {
	// Config selects the participating cores (default both groups).
	Config amp.Config
	// PProportion is the level-1 cost share of the P-group; 0 derives it
	// from the machine (DefaultProportion).
	PProportion float64
	// Base is the HACSR short/long threshold; 0 derives it from the
	// matrix (AutoBase).
	Base int
	// Metric is the partitioning cost measure (default CacheLineCost).
	Metric CostMetric
	// DisableReorder skips the HACSR reorder (ablation; also Figure 9's
	// partition-only comparisons run with natural order).
	DisableReorder bool
	// OneLevel disables the heterogeneity-aware level-1 split, balancing
	// cost equally across all cores (ablation).
	OneLevel bool
	// Index selects the column-index stream policy (default IndexAuto:
	// compressed u32/u16/diagonal streams with per-region dispatch).
	Index IndexMode
	// Value selects the value stream policy (default ValueAuto: a 1-byte
	// palette stream when the matrix has at most PaletteMax distinct
	// values — bit-exact — and the []float64 reference otherwise).
	Value ValueMode
	// Exec selects how rows cut across cores are resolved (default
	// ExecAuto: segmented-sum execution with a parallel patch when the
	// row-length skew predicts the serial extraY epilogue or the
	// per-row fragment-walk overhead dominates, the classic serial
	// epilogue otherwise).
	Exec ExecMode
}

// New builds the HASpMV algorithm. Config defaults to both groups (PAndE).
func New(opts Options) exec.Algorithm { return &alg{opts: opts} }

type alg struct{ opts Options }

func (a *alg) Name() string { return fmt.Sprintf("HASpMV(%v,%v)", a.opts.Config, a.opts.Metric) }

func (a *alg) Prepare(m *amp.Machine, mat *sparse.CSR) (exec.Prepared, error) {
	tel := telemetry.Active()
	var tPrep, t0 time.Time
	if tel != nil {
		tPrep = time.Now()
	}
	if err := mat.Validate(); err != nil {
		return nil, err
	}
	opts := a.opts
	if opts.Base <= 0 {
		opts.Base = AutoBase(mat)
	}

	if tel != nil {
		t0 = time.Now()
	}
	cores := m.Cores(opts.Config)
	// Rows with no nonzeros occupy zero width in nnz space and are not
	// visited by the region walk; Compute zeroes them explicitly. The
	// reorder sweep already classifies every row, so convert collects the
	// empty ones in the same pass instead of re-scanning the row pointer.
	var h *HACSR
	var empty []int
	if opts.DisableReorder {
		h = Identity(mat)
		empty = collectEmptyRows(mat)
	} else {
		h, empty = convert(mat, opts.Base)
	}
	if tel != nil {
		tel.RecordPhase(telemetry.PhaseReorder, time.Since(t0))
		t0 = time.Now()
	}
	streams := buildStreams(mat, h, opts.Index)
	values := buildValues(mat, opts.Value)
	if tel != nil {
		tel.RecordPhase(telemetry.PhaseStreams, time.Since(t0))
		t0 = time.Now()
	}
	// The auto level-1 proportion prices the working set the kernels will
	// actually stream, so it sees the compressed index and value widths.
	if opts.PProportion <= 0 || opts.PProportion >= 1 {
		opts.PProportion = proportionForBytes(m, mat, streams.effIdxBytes(mat.NNZ()), values.effValBytes())
	}
	cs := costSum(mat, h, opts.Metric)
	if tel != nil {
		tel.RecordPhase(telemetry.PhaseCacheLineCost, time.Since(t0))
	}
	regions := partition(mat, streams.col32, h, cs, m, cores, opts.PProportion, opts.Metric, opts.OneLevel, tel)
	if err := checkRegions(h, regions); err != nil {
		return nil, err
	}

	// Per-core unroll threshold (Algorithm 6 determines Len by core
	// type): P-class cores switch to the doubly-unrolled path earlier.
	unroll := make([]int, len(cores))
	for i, c := range cores {
		if g, _ := m.GroupOf(c); g.Kind == amp.Performance {
			unroll[i] = 32
		} else {
			unroll[i] = 64
		}
	}

	p := &Prepared{
		mat: mat, h: h, machine: m,
		opts: opts, emptyRows: empty, unroll: unroll,
		cs: cs, cores: cores, streams: streams, values: values,
		accum: make([]coreAccum, len(regions)),
	}
	for _, c := range cores {
		if g, _ := m.GroupOf(c); g.Kind == amp.Performance {
			p.pCount++
		}
	}
	p.skew = costmodel.ComputeRowSkew(mat.RowPtr)
	p.buildSegments()
	p.assignModes(regions)
	p.assignFormats(regions)
	p.regions.Store(&regions)
	p.scratch.Store(p.newScratch())
	p.triadMBps = int64(costmodel.EstimateTriad(m, costmodel.DefaultParams(), cores, triadElems).GBps * 1000)
	gTriadPeak.Set(p.triadMBps)
	cPrepares.Add(1)
	gRegions.Set(int64(len(regions)))
	if tel != nil {
		d := time.Since(tPrep)
		tel.RecordPhase(telemetry.PhasePrepare, d)
		prepareHist.Observe(d)
		tel.RecordPartition(partitionRecord(m, mat, h, cs, opts, regions))
	}
	return p, nil
}

// partitionRecord snapshots a partition decision for the trace: the
// inputs (machine, matrix shape, base, metric, proportion) and the
// resulting regions with row-granular cost shares.
func partitionRecord(m *amp.Machine, a *sparse.CSR, h *HACSR, cs []int, opts Options, regions []Region) telemetry.PartitionRecord {
	costAt := func(pos int) int {
		if pos >= h.NNZ() {
			return cs[h.Rows]
		}
		return cs[rowOfPosition(h, pos)]
	}
	rec := telemetry.PartitionRecord{
		Algorithm:  "HASpMV",
		Machine:    m.Name,
		Rows:       a.Rows,
		Cols:       a.Cols,
		NNZ:        a.NNZ(),
		Base:       opts.Base,
		Metric:     opts.Metric.String(),
		Proportion: opts.PProportion,
		TotalCost:  cs[h.Rows],
		Regions:    make([]telemetry.RegionRecord, len(regions)),
	}
	for i, r := range regions {
		rec.Regions[i] = telemetry.RegionRecord{
			Core: r.Core, Lo: r.Lo, Hi: r.Hi,
			Cost: costAt(r.Hi) - costAt(r.Lo),
		}
	}
	return rec
}

// Prepared is an analyzed HASpMV instance. It is exported (unlike the
// baselines') so tests and the harness can inspect the format and the
// partition.
type Prepared struct {
	mat       *sparse.CSR
	h         *HACSR
	machine   *amp.Machine
	opts      Options
	emptyRows []int
	unroll    []int
	// cs is the per-reordered-row cost prefix sum the partition was cut
	// from; Repartition reuses it to move boundaries in O(cores·log nnz).
	cs []int
	// streams holds the compressed column-index streams built once at
	// Prepare; Repartition only re-picks per-region formats over them.
	streams indexStreams
	// values holds the compressed value stream (palette), also
	// built once at Prepare and shared by every region.
	values valueStreams
	// segs is the per-reordered-row segment descriptor stream for
	// segmented-sum execution (nil when the mode is off for this
	// instance); like streams it is built once at Prepare and survives
	// every Repartition, which only re-picks per-region modes.
	segs []kernel.Segment
	// skew is the row-length skew profile driving the execution-mode
	// dispatch.
	skew costmodel.RowSkew
	// cores are the participating core ids (P slots first), and pCount
	// how many of them belong to the Performance group.
	cores  []int
	pCount int
	// regions is the live partition. Compute and ComputeBatch snapshot the
	// pointer once per call so Repartition can swap in a new tiling under
	// concurrent multiplies without ever exposing a half-moved partition.
	regions atomic.Pointer[[]Region]
	// accum is the always-on per-region execution signal (one nanosecond
	// and nonzero accumulator per core slot, cache-line padded). It costs
	// two time.Now calls per core per multiply and no allocation, so the
	// Adapter works with telemetry gated off.
	accum []coreAccum
	// plan is the last installed Repartition target (nil until the first
	// Repartition; Plan() falls back to the Prepare-time proportion).
	plan atomic.Pointer[Plan]
	// repMu serializes Repartition calls and protects its reusable
	// boundary scratch.
	repMu      sync.Mutex
	repBounds  []float64
	repCuts    []int
	rebalances atomic.Int64
	// scratch is the reusable per-call workspace. Compute claims it with
	// an atomic swap and puts it back, so serial repeated multiplication
	// is allocation-free; concurrent calls on the same Prepared fall back
	// to a fresh workspace.
	scratch atomic.Pointer[computeScratch]
	// batch is ComputeBatch's workspace under the same swap discipline.
	batch atomic.Pointer[batchScratch]
	// structBytes is the modeled memory traffic of one sweep over the
	// matrix structure (values, column indices at the cost model's widths,
	// row pointers), refreshed by assignFormats whenever region formats
	// change. Together with the vector traffic it prices each multiply's
	// effective bandwidth against triadMBps, the calibrated stream-triad
	// DRAM peak for this core selection.
	structBytes atomic.Int64
	triadMBps   int64
}

// vectorBytes is the modeled x-load plus y-store traffic of one
// single-vector multiply.
func (p *Prepared) vectorBytes() int64 { return int64(p.mat.Rows+p.mat.Cols) * 8 }

// TrafficBytes returns the modeled memory traffic of one Compute call at
// the cost model's stream widths: values, per-region column indexes, row
// pointers, and the dense vectors.
func (p *Prepared) TrafficBytes() int64 { return p.structBytes.Load() + p.vectorBytes() }

// batchTrafficBytes prices a fused nv-vector multiply: the structure is
// streamed once per register block of vectors, the dense vectors once
// each.
func (p *Prepared) batchTrafficBytes(nv int) int64 {
	sweeps := int64((nv + kernel.MaxBlock - 1) / kernel.MaxBlock)
	return p.structBytes.Load()*sweeps + int64(nv)*p.vectorBytes()
}

// TriadPeakMBps returns the calibrated stream-triad peak (MB/s) for this
// instance's core selection — the roofline the effective-bandwidth gauge
// is compared against.
func (p *Prepared) TriadPeakMBps() int64 { return p.triadMBps }

// recordBandwidth refreshes the effective-bandwidth and roofline gauges
// after a multiply that streamed `bytes` in `d`. Callers gate on
// telemetry being active; both Set calls are plain atomic stores.
func (p *Prepared) recordBandwidth(bytes int64, d time.Duration) {
	ns := int64(d)
	if ns <= 0 {
		return
	}
	mbps := bytes * 1000 / ns // bytes/ns = GB/s, ×1000 → MB/s
	gEffBandwidth.Set(mbps)
	if p.triadMBps > 0 {
		gRoofline.Set(mbps * 100 / p.triadMBps)
	}
}

// coreAccum is one core slot's always-on span accumulator, padded so
// neighbouring cores do not false-share a cache line in the hot path.
type coreAccum struct {
	ns  atomic.Int64
	nnz atomic.Int64
	_   [48]byte
}

// drainSpanNs moves the accumulated per-slot nanoseconds into ns
// (len >= region count) and resets the accumulators.
func (p *Prepared) drainSpanNs(ns []int64) {
	for i := range p.accum {
		ns[i] = p.accum[i].ns.Swap(0)
		p.accum[i].nnz.Store(0)
	}
}

// computeScratch is Compute's per-call workspace: the extraY conflict
// slots, the parallel body closure (built once so the hot path does not
// re-allocate it), and the per-call vectors and telemetry collector the
// body reads.
type computeScratch struct {
	p        *Prepared
	y, x     []float64
	tel      *telemetry.Collector
	regs     []Region
	extraRow []int
	extraVal []float64
	// pending holds one rendezvous counter per region slot for the
	// segmented-sum parallel patch (indexed by the group head's slot);
	// counters are zero between calls (the patching member resets its
	// group's counter), so the pooled scratch needs no per-call sweep.
	pending []atomic.Int32
	// durNs is each slot's kernel time for the current call — one plain
	// store per core, read by the traced path to surface the critical-path
	// core without touching the always-on cumulative accumulators.
	durNs []int64
	body  func(id int)
}

func (p *Prepared) newScratch() *computeScratch {
	n := len(*p.regions.Load())
	s := &computeScratch{
		p:        p,
		extraRow: make([]int, n),
		extraVal: make([]float64, n),
		pending:  make([]atomic.Int32, n),
		durNs:    make([]int64, n),
	}
	s.body = s.run
	return s
}

// run is one core's share of a Compute call (the body Algorithm 5 gives
// each thread), plus optional span recording: nonzeros processed, row
// fragments walked, and whether this core produced an extraY entry.
func (s *computeScratch) run(id int) {
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
		frags = computeRegion(s, id, reg, p.mat.Val, nil)
	} else {
		frags = computeRegion(s, id, reg, p.values.palIdx, p.values.tab)
	}
	nnzDone := reg.Hi - reg.Lo
	dur := time.Since(t0)
	// Always-on signal for the adapter: per-slot busy nanoseconds and
	// nonzeros, independent of the gated telemetry collector.
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

// walkFragments is the per-fragment walk of Algorithm 5 over reordered
// positions [lo, hi), starting at row r, through the region's value and
// column streams: one dot product per row fragment, stored directly
// when the fragment starts its row and into the core's conflict slot
// otherwise (only a region's first row can start mid-row). bases holds
// the per-row u16 delta base columns (nil for other streams); in a dia
// region the rows with run descriptors take the descriptor kernel and
// the others the u32 stream in col. Returns the fragments processed.
func walkFragments[V kernel.ValSource, C kernel.ColIndex](s *computeScratch, id int, reg Region, lo, hi, r int, vals []V, pal *[PaletteMax]float64, col []C, bases []int) int {
	p := s.p
	h, st, y, x := p.h, &p.streams, s.y, s.x
	dia := reg.Format == IndexDia
	un := p.unroll[id]
	frags := 0
	for pos := lo; pos < hi; r++ {
		rowStart, rowEnd := h.RowPtr[r], h.RowPtr[r+1]
		fragEnd := min(rowEnd, hi)
		if fragEnd <= pos {
			continue
		}
		o := h.RowBeginNNZ[r]
		klo, khi := o+(pos-rowStart), o+(fragEnd-rowStart)
		var sum float64
		if dia && st.rowRun[r+1] > st.rowRun[r] {
			sum = kernel.DotDia(vals, pal, st.runs, int(st.rowRun[r]), x, klo, khi, un)
		} else {
			base := 0
			if bases != nil {
				base = bases[r]
			}
			sum = kernel.Dot(vals, pal, col, base, x, klo, khi, un)
		}
		if pos == rowStart {
			// This core owns the row's first fragment: direct store
			// (Algorithm 5's y[pl[id]] = kernel(...)).
			y[h.Perm[r]] = sum
		} else {
			s.extraRow[id] = h.Perm[r]
			s.extraVal[id] = sum
		}
		frags++
		pos = fragEnd
	}
	return frags
}

// Format exposes the HACSR view.
func (p *Prepared) Format() *HACSR { return p.h }

// Regions exposes the per-core partition in reordered-nnz space (the
// live tiling; Repartition swaps in a new slice, so callers holding the
// returned value keep a consistent snapshot).
func (p *Prepared) Regions() []Region { return *p.regions.Load() }

// Repartitions counts successful Repartition calls on this instance.
func (p *Prepared) Repartitions() int64 { return p.rebalances.Load() }

// Compute implements Algorithm 5: per-core fragment kernels with the
// extraY epilogue resolving rows that are cut across cores. The
// steady-state path performs zero heap allocations (the workspace is
// reused via Prepared.scratch and exec.Parallel dispatches to a
// persistent worker pool); with telemetry enabled it additionally records
// one span per core and the whole-call compute phase.
func (p *Prepared) Compute(y, x []float64) { p.computeWith(y, x, nil) }

// ComputeTraced is Compute plus a stage breakdown: it splits the call
// into the parallel kernel phase and the serial extraY merge, records the
// critical-path core and the per-format nonzero split, and prices the
// multiply's modeled traffic — everything the serving layer's per-request
// traces attribute. bd is caller-owned and reused (see
// tracing.ComputeBreakdown), so the traced path allocates exactly as much
// as Compute: nothing.
func (p *Prepared) ComputeTraced(y, x []float64, bd *tracing.ComputeBreakdown) {
	p.computeWith(y, x, bd)
}

func (p *Prepared) computeWith(y, x []float64, bd *tracing.ComputeBreakdown) {
	tel := telemetry.Active()
	var t0 time.Time
	if tel != nil || bd != nil {
		t0 = time.Now()
	}
	s := p.scratch.Swap(nil)
	if s == nil {
		s = p.newScratch()
	}
	// One regions snapshot per call: every worker of this multiply walks
	// the same tiling even if Repartition swaps the partition mid-flight.
	s.y, s.x, s.tel, s.regs = y, x, tel, *p.regions.Load()
	for _, r := range p.emptyRows {
		y[r] = 0
	}
	n := len(s.regs)
	exec.Parallel(n, s.body)
	var tKernel time.Time
	if bd != nil {
		tKernel = time.Now()
	}
	// Serial epilogue (Algorithm 5 lines 15-17): add the tail conflicts.
	for id := 0; id < n; id++ {
		if s.extraRow[id] >= 0 {
			y[s.extraRow[id]] += s.extraVal[id]
		}
	}
	if bd != nil {
		bd.KernelNs = int64(tKernel.Sub(t0))
		bd.MergeNs = int64(time.Since(tKernel))
		p.fillBreakdown(bd, s.regs, s.durNs, p.TrafficBytes())
	}
	s.y, s.x, s.tel, s.regs = nil, nil, nil, nil
	p.scratch.Store(s)
	cComputes.Add(1)
	if tel != nil {
		d := time.Since(t0)
		tel.RecordPhase(telemetry.PhaseCompute, d)
		computeHist.Observe(d)
		p.recordBandwidth(p.TrafficBytes(), d)
	}
}

// fillBreakdown completes the executor-side fields of a traced multiply:
// fan-out width, critical-path core, per-format nonzero split, and the
// modeled traffic of the call. KernelNs/MergeNs are set by the caller.
func (p *Prepared) fillBreakdown(bd *tracing.ComputeBreakdown, regs []Region, durNs []int64, bytes int64) {
	bd.Cores = len(regs)
	bd.MaxCoreNs = 0
	bd.NNZByFormat = [4]int64{}
	for i := range regs {
		if durNs[i] > bd.MaxCoreNs {
			bd.MaxCoreNs = durNs[i]
		}
		bd.NNZByFormat[regs[i].Format] += int64(regs[i].Hi - regs[i].Lo)
	}
	bd.Bytes = bytes
}

// rowOfPosition returns the reordered row containing reordered-nnz
// position pos (the first row whose end exceeds it).
func rowOfPosition(h *HACSR, pos int) int {
	return sort.Search(h.Rows, func(i int) bool { return h.RowPtr[i+1] > pos })
}

// costAt returns the row-granular cost prefix at reordered-nnz position
// pos, so a region's assigned cost is costAt(Hi) - costAt(Lo).
func (p *Prepared) costAt(pos int) int {
	if pos >= p.h.NNZ() {
		return p.cs[p.h.Rows]
	}
	return p.cs[rowOfPosition(p.h, pos)]
}

// Assignments maps each region to spans in the original matrix's nnz
// space for the performance model, merging fragments of consecutive
// original rows into single spans.
func (p *Prepared) Assignments() []costmodel.Assignment {
	h := p.h
	regions := *p.regions.Load()
	asgs := make([]costmodel.Assignment, len(regions))
	for i, reg := range regions {
		asg := costmodel.Assignment{Core: reg.Core}
		// Tell the model which index width this region streams; the []int
		// reference keeps the zero value (the model then prices the
		// paper's 4-byte baseline, as before this representation existed).
		// Diagonal regions have no per-nonzero width — their index-side
		// traffic is the total descriptor plus fallback bytes, reported
		// through DiagBytes instead.
		switch reg.Format {
		case Index32:
			asg.IdxBytes = 4
		case Index16:
			asg.IdxBytes = 2
		case IndexDia:
			runsIn, inel := p.regionDiaParts(reg)
			asg.DiagBytes = int(8*runsIn + 4*inel)
		}
		// And which value width (palette); ValF64 keeps the zero value
		// so the model's default ValBytes applies.
		if reg.Val != ValF64 {
			asg.ValBytes = reg.Val.BytesPerValue()
		}
		if reg.Lo < reg.Hi {
			r := reg.StartRow
			pos := reg.Lo
			var cur costmodel.Span
			open := false
			for pos < reg.Hi {
				rowStart, rowEnd := h.RowPtr[r], h.RowPtr[r+1]
				fragEnd := rowEnd
				if fragEnd > reg.Hi {
					fragEnd = reg.Hi
				}
				if fragEnd > pos {
					o := h.RowBeginNNZ[r]
					lo := o + (pos - rowStart)
					hi := o + (fragEnd - rowStart)
					if open && cur.Hi == lo {
						cur.Hi = hi
					} else {
						if open {
							asg.Spans = append(asg.Spans, cur)
						}
						cur = costmodel.Span{Lo: lo, Hi: hi}
						open = true
					}
					pos = fragEnd
				}
				r++
			}
			if open {
				asg.Spans = append(asg.Spans, cur)
			}
		}
		asgs[i] = asg
	}
	return asgs
}
