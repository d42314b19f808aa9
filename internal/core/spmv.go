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
	// Index selects the column-index stream (default IndexAuto: the u32
	// stream; IndexReference walks the []int ColIdx).
	Index IndexMode
	// Value is ignored: every instance streams the matrix's own
	// []float64. It stays because perfbench's pinned reference sets it.
	Value ValueMode
	// Exec selects the region walk (default ExecAuto: segmented-sum
	// execution with the parallel cut-row patch; ExecSerial: the
	// per-fragment walk with the serial extraY epilogue).
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
	if err := checkSize(mat.Rows, mat.Cols, len(mat.Val)); err != nil {
		return nil, err
	}
	if err := validate(mat); err != nil {
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
	col32 := buildCol32(mat, opts.Index)
	if tel != nil {
		tel.RecordPhase(telemetry.PhaseStreams, time.Since(t0))
		t0 = time.Now()
	}
	if opts.PProportion <= 0 || opts.PProportion >= 1 {
		opts.PProportion = ProportionFor(m, mat)
	}
	cs := costSum(mat, h, opts.Metric)
	if tel != nil {
		tel.RecordPhase(telemetry.PhaseCacheLineCost, time.Since(t0))
	}
	regions := partition(mat, col32, h, cs, m, cores, opts.PProportion, opts.Metric, opts.OneLevel, tel)
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
		cs: cs, cores: cores, col32: col32,
	}
	for _, c := range cores {
		if g, _ := m.GroupOf(c); g.Kind == amp.Performance {
			p.pCount++
		}
	}
	p.buildSegments()
	p.assignGroups(regions)
	p.recordStreams()
	p.regions.Store(&regions)
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
	// col32 is the u32 column-index stream, in original nnz order, built
	// once at Prepare (nil under IndexReference).
	col32 []uint32
	// segs is the per-reordered-row segment descriptor stream for
	// segmented-sum execution (nil under ExecSerial); like col32 it is
	// built once at Prepare and survives every Repartition, which only
	// re-derives the cut-row groups.
	segs []kernel.Segment
	// cores are the participating core ids (P slots first), and pCount
	// how many of them belong to the Performance group.
	cores  []int
	pCount int
	// regions is the live partition. Compute and ComputeBatch snapshot the
	// pointer once per call so Repartition can swap in a new tiling under
	// concurrent multiplies without ever exposing a half-moved partition.
	regions atomic.Pointer[[]Region]
	// plan is the last installed Repartition target (nil until the first
	// Repartition; Plan() falls back to the Prepare-time proportion).
	plan atomic.Pointer[Plan]
	// repMu serializes Repartition calls and protects its reusable
	// boundary scratch.
	repMu        sync.Mutex
	repBounds    []float64
	repCuts      []int
	repartitions atomic.Int64
	// batch is the pooled multiply workspace Compute and ComputeBatch
	// claim with an atomic swap (see batchScratch).
	batch atomic.Pointer[batchScratch]
	// triadMBps is the calibrated stream-triad DRAM peak for this core
	// selection, which each multiply's effective bandwidth (its modeled
	// traffic over its time) is compared against.
	triadMBps int64
}

// TrafficBytes returns the modeled memory traffic of one Compute call at
// the cost model's stream widths: values, per-region column indexes, row
// pointers, and the dense vectors.
func (p *Prepared) TrafficBytes() int64 { return p.batchTrafficBytes(1, 0) }

// batchTrafficBytes prices an nv-vector multiply that interleaved packed
// of its vectors: the structure is streamed once per register block of
// vectors, the dense x and y once each, and the pack pass reads and
// writes each packed vector once more.
func (p *Prepared) batchTrafficBytes(nv, packed int) int64 {
	sweeps := int64((nv + kernel.MaxBlock - 1) / kernel.MaxBlock)
	return p.structBytes()*sweeps + int64(nv)*int64(p.mat.Rows+p.mat.Cols)*8 +
		2*int64(packed)*int64(p.mat.Cols)*8
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

// Format exposes the HACSR view.
func (p *Prepared) Format() *HACSR { return p.h }

// Regions exposes the per-core partition in reordered-nnz space (the
// live tiling; Repartition swaps in a new slice, so callers holding the
// returned value keep a consistent snapshot).
func (p *Prepared) Regions() []Region { return *p.regions.Load() }

// Repartitions counts successful Repartition calls on this instance.
func (p *Prepared) Repartitions() int64 { return p.repartitions.Load() }

// Compute implements Algorithm 5: per-core fragment kernels with the
// extraY epilogue resolving rows that are cut across cores. It is
// ComputeBatch on one vector, so it performs zero heap allocations in
// the steady state; with telemetry enabled it additionally records one
// "core" span per non-empty region and the whole-call compute phase.
func (p *Prepared) Compute(y, x []float64) { p.ComputeTraced(y, x, nil) }

// ComputeTraced is Compute plus a stage breakdown: it splits the call
// into the parallel kernel phase and the serial extraY merge, records the
// critical-path core and the per-format nonzero split, and prices the
// multiply's modeled traffic — everything the serving layer's per-request
// traces attribute. bd is caller-owned and reused (see
// tracing.ComputeBreakdown; nil records none), so the traced path
// allocates exactly as much as Compute: nothing.
func (p *Prepared) ComputeTraced(y, x []float64, bd *tracing.ComputeBreakdown) {
	s := p.claimScratch(1)
	s.y1[0], s.x1[0] = y, x
	p.multiply(s, s.y1[:], s.x1[:], false, bd)
}

// rowOfPosition returns the reordered row containing reordered-nnz
// position pos (the first row whose end exceeds it).
func rowOfPosition(h *HACSR, pos int) int {
	return sort.Search(h.Rows, func(i int) bool { return h.RowPtr[i+1] > pos })
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
		if p.col32 != nil {
			asg.IdxBytes = 4
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
