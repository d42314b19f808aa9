package core

import (
	"fmt"
	"math"

	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/kernel"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry"
)

// Pluggable per-region execution formats. SpMV is stream bound and []int
// column indices are 8 of the 16 bytes moved per nonzero, so Prepare
// derives narrower physical index streams and each region picks the
// cheapest encoding (fewest stream bytes) its rows permit:
//
//   - u32 absolute indices whenever the matrix has fewer than 2^32
//     columns (4 bytes per nonzero),
//   - a DIA-style diagonal descriptor stream for regions dominated by
//     runs of nonzeros at consecutive columns (banded and stencil
//     matrices): an 8-byte {end, col-k offset} descriptor per run and
//     *no per-nonzero index at all*. Rows whose run structure is too
//     fragmented to pay for descriptors stay on the u32 stream inside
//     the same region — the per-row fallback mirrors the SegSum
//     fragment discipline, so one defective row never disqualifies a
//     whole band.
//
// The []int stream is kept as the fallback and as the reference oracle
// the fuzz bit-equality stage compares against; results are
// bit-identical across formats because every stream runs the same
// kernel body, instantiated per column type, over the same operand
// values.

// Stream-build telemetry (no-ops while telemetry is disabled).
var (
	gStreamBytes = telemetry.NewGauge("core_index_stream_bytes")
	gValueBytes  = telemetry.NewGauge("core_value_stream_bytes")
	gDiaRuns     = telemetry.NewGauge("core_partition_dia_runs")
	gNNZFormat   = [4]*telemetry.Gauge{
		telemetry.NewGauge("core_partition_nnz_int"),
		telemetry.NewGauge("core_partition_nnz_u32"),
		nil, // Index16 is never assigned
		telemetry.NewGauge("core_partition_nnz_dia"),
	}
	cNNZFormat = [4]*telemetry.Counter{
		telemetry.NewCounter("core_nnz_int"),
		telemetry.NewCounter("core_nnz_u32"),
		nil, // Index16 is never assigned
		telemetry.NewCounter("core_nnz_dia"),
	}
	cNNZValue = [2]*telemetry.Counter{
		telemetry.NewCounter("core_nnz_val_f64"),
		telemetry.NewCounter("core_nnz_val_palette"),
	}
)

// IndexFormat is the physical column-index encoding one region executes
// with. The zero value is the []int reference stream, so a Region built
// before stream assignment (or by tests) dispatches to the original
// kernels.
type IndexFormat uint8

const (
	// IndexInt walks the matrix's own ColIdx []int (8 bytes per index).
	IndexInt IndexFormat = iota
	// Index32 walks the u32 absolute stream (4 bytes per index).
	Index32
	// Index16 is never assigned: no region runs a 2-byte delta stream.
	// It stays declared so that NNZByFormat keeps its four slots, which
	// perfbench's per-format shares index.
	Index16
	// IndexDia walks run descriptors (8 bytes per *run*, no per-nonzero
	// index); rows without enough run structure fall back to the u32
	// stream inside the region.
	IndexDia
)

func (f IndexFormat) String() string {
	switch f {
	case IndexInt:
		return "int"
	case Index32:
		return "u32"
	case Index16:
		return "u16"
	case IndexDia:
		return "dia"
	default:
		return fmt.Sprintf("IndexFormat(%d)", int(f))
	}
}

// BytesPerIndex returns the per-nonzero stream width of the format.
// IndexDia has no per-nonzero index — its descriptor traffic is per run
// (see IndexStats.StreamIndexBytes for the real byte accounting) — so
// it reports 0 here.
func (f IndexFormat) BytesPerIndex() int {
	switch f {
	case Index32:
		return 4
	case IndexDia:
		return 0
	default:
		return 8
	}
}

// IndexMode selects which streams Prepare builds. The zero value
// compresses by default: the public API is unchanged and every caller
// gets the narrower streams unless it opts out.
type IndexMode int

const (
	// IndexAuto builds the u32 stream and diagonal descriptors for every
	// run-structured row; each region then executes with the cheapest
	// format its rows support.
	IndexAuto IndexMode = iota
	// IndexReference skips compression entirely: every region walks the
	// original []int ColIdx (the oracle the fuzz stage compares against).
	IndexReference
	// IndexU32 builds only the u32 stream (no per-row run analysis);
	// used by benchmarks to isolate the u32 win from the diagonal
	// format.
	IndexU32
	// IndexForceDia builds the same streams as IndexAuto but assigns
	// IndexDia to every region not running segmented whenever any row
	// qualified (ineligible rows still take the per-row u32 fallback);
	// used by the fuzz targets and benchmarks to pin the diagonal path.
	IndexForceDia
)

func (m IndexMode) String() string {
	switch m {
	case IndexAuto:
		return "auto"
	case IndexReference:
		return "int"
	case IndexU32:
		return "u32"
	case IndexForceDia:
		return "dia"
	default:
		return fmt.Sprintf("IndexMode(%d)", int(m))
	}
}

// diaMinSingleRunLen and diaMinRunLen gate rows into the diagonal
// format on time, not just bytes. Bytes alone would put both bounds at
// 2 (an 8-byte descriptor over >= 2 nonzeros is <= 4 bytes per nonzero,
// no worse than u32), but the decoder pays real time the byte count
// does not see, and how much depends on the row's run structure:
//
//   - A single-run row executes through the branch-free contiguous
//     path of kernel/diag.go; its only overhead is the per-row
//     skip-and-reslice preamble, which a 4-nonzero row cannot amortize.
//     Measured on short-banded matrices (single runs of ~5), a bound of
//     4 picked dia and ran ~25% slower than a 2-byte column stream; runs
//     of >= diaMinSingleRunLen amortize the preamble.
//
//   - A multi-run row walks the general decoder, which takes a boundary
//     check per unroll group and a per-element catch-up loop in every
//     group straddling a run end. At mean run ~8 nearly every 8-wide
//     group straddles (measured ~30% slower than a 2-byte column stream
//     despite 1.57 vs 2 bytes per nonzero); runs of >= diaMinRunLen keep
//     most groups on the branch-free path.
const diaMinSingleRunLen = 8

// diaMinRunLen is the mean-run-length bound for multi-run rows; see
// diaMinSingleRunLen.
const diaMinRunLen = 16

// indexStreams holds the compressed column-index streams, all indexed by
// *original* nnz position (parallel to CSR.ColIdx) so the fragment walk
// uses the same offsets for every format.
type indexStreams struct {
	// col32 is the u32 absolute stream; nil when compression is off
	// (IndexReference) or impossible (>= 2^32 columns).
	col32 []uint32
	// runs holds the diagonal descriptors of every dia-eligible row, in
	// reordered row order; one row's runs are contiguous and EndK is an
	// *original* nnz position. Nil when no row qualifies.
	runs []kernel.DiaRun
	// rowRun[i] counts run descriptors of dia-eligible reordered rows
	// before row i (len Rows+1): row i's descriptors are
	// runs[rowRun[i]:rowRun[i+1]], and the row is dia-eligible iff that
	// slice is nonempty.
	rowRun []int32
	// diaInel[i] counts nonzeros of dia-*ineligible* reordered rows
	// before row i (len Rows+1) — the nonzeros a dia region executes
	// through the per-row u32 fallback.
	diaInel []int
	// runNNZ is the nonzero count inside dia-eligible rows.
	runNNZ int
	// bestIdx is the summed per-row minimum of the index-side stream
	// bytes (u32, or descriptors where eligible) — the footprint the
	// assigned formats approach from above.
	bestIdx int64
}

// effIdxBytes is the footprint-weighted index-stream width the built
// streams will move per nonzero, used by the auto level-1 proportion.
// The []int reference is priced at the paper's 4-byte CSR index (the
// same width costmodel.DefaultParams charges it), not Go's physical 8:
// the proportion calibration and every figure reproduction were tuned
// against that model, and reference mode exists to reproduce them.
func (st *indexStreams) effIdxBytes(nnz int) float64 {
	if st.col32 == nil || nnz == 0 || st.bestIdx == 0 {
		return 4
	}
	return float64(st.bestIdx) / float64(nnz)
}

// buildStreams derives the compressed streams for a under mode. The u32
// copy is one chunked parallel sweep over the nonzeros, fused with the
// run counting; a permutation gather then moves the per-row run counts
// into reordered order and a last sweep materializes the run
// descriptors — the same two-pass discipline as the rest of the Prepare
// pipeline.
func buildStreams(a *sparse.CSR, h *HACSR, mode IndexMode) indexStreams {
	var st indexStreams
	if mode == IndexReference || uint64(a.Cols) > math.MaxUint32 {
		return st
	}
	nnz := a.NNZ()
	st.col32 = make([]uint32, nnz)
	// Diagonal descriptors pack positions and offsets into int32s;
	// anything larger stays on the u32 stream.
	if mode == IndexU32 || a.Rows == 0 ||
		int64(a.Cols) > math.MaxInt32 || int64(nnz) > math.MaxInt32 {
		exec.ParallelRanges(nnz, prepWidth(), prepGrain, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				st.col32[k] = uint32(a.ColIdx[k])
			}
		})
		return st
	}

	// Per-original-row run counting, fused with the u32 copy so the
	// nonzeros stream through once. Each row's count depends only on its
	// own entries, so the sweep chunks freely.
	m := a.Rows
	runCnt := make([]int32, m)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rlo, rhi := a.RowPtr[i], a.RowPtr[i+1]
			if rlo == rhi {
				continue
			}
			prev := a.ColIdx[rlo]
			runs := int32(1)
			st.col32[rlo] = uint32(prev)
			for k := rlo + 1; k < rhi; k++ {
				cix := a.ColIdx[k]
				st.col32[k] = uint32(cix)
				if cix != prev+1 {
					runs++
				}
				prev = cix
			}
			runCnt[i] = runs
		}
	})

	// Gather the per-row diagonal eligibility through the reorder
	// permutation (a single-run row qualifies at diaMinSingleRunLen, a
	// multi-run row at the decode-amortizing bound rowLen >=
	// diaMinRunLen*runCount), and the per-row best-format byte count
	// that prices the auto proportion.
	st.rowRun = make([]int32, m+1)
	st.diaInel = make([]int, m+1)
	c := exec.RangeChunks(m, prepWidth(), prepGrain)
	bests := make([]int64, c)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(ch, lo, hi int) {
		var best int64
		for i := lo; i < hi; i++ {
			o := h.Perm[i]
			rl := a.RowPtr[o+1] - a.RowPtr[o]
			b := int64(4 * rl)
			if rc := runCnt[o]; (rc == 1 && rl >= diaMinSingleRunLen) ||
				(rc > 1 && rl >= diaMinRunLen*int(rc)) {
				st.rowRun[i+1] = rc
				if db := 8 * int64(rc); db < b {
					b = db
				}
			} else {
				st.diaInel[i+1] = rl
			}
			best += b
		}
		bests[ch] = best
	})
	for ch := 0; ch < c; ch++ {
		st.bestIdx += bests[ch]
	}
	for i := 1; i <= m; i++ {
		st.rowRun[i] += st.rowRun[i-1]
		st.diaInel[i] += st.diaInel[i-1]
	}
	total := int(st.rowRun[m])
	if total == 0 {
		st.rowRun, st.diaInel = nil, nil
		return st
	}
	st.runNNZ = nnz - st.diaInel[m]

	// Materialize the descriptors for eligible rows, in reordered order
	// so one row's runs are contiguous and indexed by the rowRun prefix.
	// EndK stays an original nnz position — the same offsets the
	// fragment walk uses for every other stream.
	st.runs = make([]kernel.DiaRun, total)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ri := int(st.rowRun[i])
			if int(st.rowRun[i+1]) == ri {
				continue
			}
			o := h.Perm[i]
			klo, khi := a.RowPtr[o], a.RowPtr[o+1]
			c0, start := a.ColIdx[klo], klo
			for k := klo + 1; k < khi; k++ {
				if a.ColIdx[k] != a.ColIdx[k-1]+1 {
					st.runs[ri] = kernel.DiaRun{EndK: int32(k), ColMinusK: int32(c0 - start)}
					ri++
					c0, start = a.ColIdx[k], k
				}
			}
			st.runs[ri] = kernel.DiaRun{EndK: int32(khi), ColMinusK: int32(c0 - start)}
		}
	})
	return st
}

// regionDiaParts returns the run-descriptor and fallback-nonzero counts
// a diagonal execution of the region walks: descriptors of every
// dia-eligible row it touches, plus the nonzeros of its ineligible rows
// (executed through the per-row u32 fallback). Both are full-row counts
// — a region may start or end mid-row, and the boundary fragments reuse
// the whole row's descriptors — so the byte estimate is an upper bound
// for boundary rows, exact everywhere else.
func (p *Prepared) regionDiaParts(r Region) (runs, inelNNZ int64) {
	st := &p.streams
	if st.runs == nil || r.Lo >= r.Hi {
		return 0, 0
	}
	last := rowOfPosition(p.h, r.Hi-1)
	return int64(st.rowRun[last+1] - st.rowRun[r.StartRow]),
		int64(st.diaInel[last+1] - st.diaInel[r.StartRow])
}

// regionFormat picks the cheapest stream (fewest index-side bytes) the
// region's rows can execute with. A region may start or end mid-row;
// run validity is per-row, so a partial fragment of an eligible row
// still decodes correctly and only the set of *touched* rows matters.
// Ties keep u32, so diagonal execution engages only when descriptors
// are strictly cheaper.
func (p *Prepared) regionFormat(r Region) IndexFormat {
	st := &p.streams
	if st.col32 == nil {
		return IndexInt
	}
	if r.Lo >= r.Hi {
		return Index32
	}
	// Segmented regions walk their interior rows on a column stream (the
	// segmented kernels have no descriptor decoder), so they never take
	// IndexDia: it would price run descriptors no kernel reads.
	if st.runs == nil || r.SegSum {
		return Index32
	}
	if p.opts.Index == IndexForceDia {
		return IndexDia
	}
	if runsIn, inel := p.regionDiaParts(r); runsIn > 0 && 8*runsIn+4*inel < 4*int64(r.Hi-r.Lo) {
		return IndexDia
	}
	return Index32
}

// assignFormats stamps every region with its index format and the
// instance's value format, and refreshes the partition-level stream
// gauges. It runs at Prepare and after every Repartition, after
// assignModes (a segmented region never takes IndexDia) and before the
// regions slice is published: boundary moves never rebuild streams,
// they only re-pick formats, so a region whose new row set no longer
// pays for descriptors falls back to u32 ([]int when compression is
// off).
func (p *Prepared) assignFormats(regions []Region) {
	var bytes, modelIdx, diaRuns int64
	var nnzBy [4]int64
	vf := p.values.format
	for i := range regions {
		f := p.regionFormat(regions[i])
		regions[i].Format = f
		regions[i].Val = vf
		n := int64(regions[i].Hi - regions[i].Lo)
		nnzBy[f] += n
		var b int64
		switch f {
		case IndexDia:
			runsIn, inel := p.regionDiaParts(regions[i])
			b = 8*runsIn + 4*inel
			diaRuns += runsIn
			bytes += b
			modelIdx += b
		case IndexInt:
			// The []int reference keeps the paper's 4-byte model width in
			// the traffic estimate (as Assignments reports it) but streams
			// Go's physical 8 bytes.
			bytes += 8 * n
			modelIdx += 4 * n
		default:
			b = n * int64(f.BytesPerIndex())
			bytes += b
			modelIdx += b
		}
	}
	gStreamBytes.Set(bytes)
	gDiaRuns.Set(diaRuns)
	for f, g := range gNNZFormat {
		if g != nil {
			g.Set(nnzBy[f])
		}
	}
	// Cache the modeled structure traffic of one sweep (values at the
	// built stream's width plus the palette table, indexes at the
	// assigned widths, row pointers) for the per-multiply
	// effective-bandwidth gauge; runs before the regions are published,
	// so multiplies always see a price matching their formats.
	pm := costmodel.DefaultParams()
	valBytes := int64(p.mat.NNZ()) * int64(pm.ValBytes)
	if vf != ValF64 {
		valBytes = int64(p.mat.NNZ())*int64(vf.BytesPerValue()) + 8*int64(len(p.values.pal))
	}
	gValueBytes.Set(valBytes)
	p.structBytes.Store(valBytes + modelIdx + int64(p.mat.Rows)*int64(pm.PtrBytes))
}

// IndexStats summarizes the compressed execution representation of the
// live partition.
type IndexStats struct {
	// NNZByFormat counts assigned nonzeros per execution format, indexed
	// by IndexFormat (int, u32, u16, dia); the Index16 slot stays 0.
	NNZByFormat [4]int
	// StreamIndexBytes is the total index bytes one multiply streams
	// under the current region formats (for dia regions: run descriptors
	// plus the u32 fallback indices of ineligible rows).
	StreamIndexBytes int
	// DiaRuns is the number of diagonal run descriptors built (all
	// dia-eligible rows, whether or not a dia region covers them).
	DiaRuns int
	// DiaEligibleNNZ counts nonzeros in dia-eligible rows (an upper
	// bound on the descriptor-covered assignment).
	DiaEligibleNNZ int
}

// IndexStats reports the per-format nnz split, index-stream bytes, and
// row-structure profile of the live partition.
func (p *Prepared) IndexStats() IndexStats {
	s := IndexStats{
		DiaRuns:        len(p.streams.runs),
		DiaEligibleNNZ: p.streams.runNNZ,
	}
	for _, r := range *p.regions.Load() {
		n := r.Hi - r.Lo
		s.NNZByFormat[r.Format] += n
		if r.Format == IndexDia {
			runsIn, inel := p.regionDiaParts(r)
			s.StreamIndexBytes += int(8*runsIn + 4*inel)
		} else {
			s.StreamIndexBytes += n * r.Format.BytesPerIndex()
		}
	}
	return s
}
