package core

import (
	"fmt"
	"math"

	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
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
//   - a DIA-style diagonal stream for regions dominated by rows whose
//     nonzeros are one run of consecutive columns (banded and stencil
//     matrices): a 4-byte column offset per row and *no per-nonzero
//     index at all*. Every other row stays on the u32 stream inside the
//     same region — the per-row fallback mirrors the SegSum fragment
//     discipline, so one defective row never disqualifies a whole
//     band.
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
	gDiaRows     = telemetry.NewGauge("core_partition_dia_rows")
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
	// IndexDia reads one column offset per row (4 bytes per *row*, no
	// per-nonzero index); rows that are not one long run fall back to
	// the u32 stream inside the region.
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
// IndexDia has no per-nonzero index — its offset traffic is per row
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
	// IndexAuto builds the u32 stream and a diagonal offset for every
	// one-run row; each region then executes with the cheapest format
	// its rows support.
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

// diaMinSingleRunLen gates rows into the diagonal format on time, not
// just bytes. A row qualifies only when its nonzeros are one run of
// consecutive columns, which executes through the branch-free
// contiguous bodies of kernel/diag.go. Bytes alone would put the bound
// at 2 (a 4-byte offset over >= 2 nonzeros undercuts u32), but the
// per-row reslice preamble costs time the byte count does not see:
// measured on short-banded matrices (single runs of ~5), a bound of 4
// picked dia and ran ~25% slower than a 2-byte column stream; runs of
// >= diaMinSingleRunLen amortize the preamble. Rows of several runs stay
// on u32: on the Table II matrices where such rows hold much of the
// nonzeros (pdb1HYS, Ga41As41H72, mip1), a general run decoder ran at
// or behind u32 despite moving fewer bytes.
const diaMinSingleRunLen = 8

// diaNone marks a row with no diagonal offset while the streams are
// built. A real offset is a column minus an nnz position, both below
// 2^31, so it is never math.MinInt32.
const diaNone = math.MinInt32

// indexStreams holds the compressed column-index streams, all indexed by
// *original* nnz position (parallel to CSR.ColIdx) so the fragment walk
// uses the same offsets for every format.
type indexStreams struct {
	// col32 is the u32 absolute stream; nil when compression is off
	// (IndexReference) or impossible (>= 2^32 columns).
	col32 []uint32
	// diaOff holds one column offset per dia-eligible row, in reordered
	// row order: that row's nonzero at original nnz position k sits in
	// column diaOff[rowDia[i]] + k. Nil when no row qualifies.
	diaOff []int32
	// rowDia[i] counts dia-eligible reordered rows before row i (len
	// Rows+1): row i is dia-eligible iff rowDia[i+1] > rowDia[i].
	rowDia []int32
	// diaInel[i] counts nonzeros of dia-*ineligible* reordered rows
	// before row i (len Rows+1) — the nonzeros a dia region executes
	// through the per-row u32 fallback.
	diaInel []int
	// runNNZ is the nonzero count inside dia-eligible rows.
	runNNZ int
	// bestIdx is the summed per-row minimum of the index-side stream
	// bytes (u32, or the offset where eligible) — the footprint the
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
// one-run test of each row; a permutation gather then moves the per-row
// eligibility into reordered order and a last sweep over the rows
// stores the offsets — the same two-pass discipline as the rest of the
// Prepare pipeline.
func buildStreams(a *sparse.CSR, h *HACSR, mode IndexMode) indexStreams {
	var st indexStreams
	if mode == IndexReference || uint64(a.Cols) > math.MaxUint32 {
		return st
	}
	nnz := a.NNZ()
	st.col32 = make([]uint32, nnz)
	// Diagonal offsets are int32s; anything larger stays on the u32
	// stream.
	if mode == IndexU32 || a.Rows == 0 ||
		int64(a.Cols) > math.MaxInt32 || int64(nnz) > math.MaxInt32 {
		exec.ParallelRanges(nnz, prepWidth(), prepGrain, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				st.col32[k] = uint32(a.ColIdx[k])
			}
		})
		return st
	}

	// Per-original-row offsets, fused with the u32 copy so the nonzeros
	// stream through once: a row of one run of at least
	// diaMinSingleRunLen columns gets its column-minus-position offset,
	// every other row diaNone. Each row depends only on its own entries,
	// so the sweep chunks freely.
	m := a.Rows
	rowOff := make([]int32, m)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rowOff[i] = diaNone
			rlo, rhi := a.RowPtr[i], a.RowPtr[i+1]
			if rlo == rhi {
				continue
			}
			prev := a.ColIdx[rlo]
			one := rhi-rlo >= diaMinSingleRunLen
			st.col32[rlo] = uint32(prev)
			for k := rlo + 1; k < rhi; k++ {
				cix := a.ColIdx[k]
				st.col32[k] = uint32(cix)
				if cix != prev+1 {
					one = false
				}
				prev = cix
			}
			if one {
				rowOff[i] = int32(a.ColIdx[rlo] - rlo)
			}
		}
	})

	// Gather the per-row diagonal eligibility through the reorder
	// permutation, and the per-row best-format byte count that prices
	// the auto proportion: 4 bytes for an eligible row's offset, 4 per
	// nonzero on u32 otherwise.
	st.rowDia = make([]int32, m+1)
	st.diaInel = make([]int, m+1)
	c := exec.RangeChunks(m, prepWidth(), prepGrain)
	bests := make([]int64, c)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(ch, lo, hi int) {
		var best int64
		for i := lo; i < hi; i++ {
			o := h.Perm[i]
			if rowOff[o] != diaNone {
				st.rowDia[i+1] = 1
				best += 4
			} else {
				rl := a.RowPtr[o+1] - a.RowPtr[o]
				st.diaInel[i+1] = rl
				best += int64(4 * rl)
			}
		}
		bests[ch] = best
	})
	for ch := 0; ch < c; ch++ {
		st.bestIdx += bests[ch]
	}
	for i := 1; i <= m; i++ {
		st.rowDia[i] += st.rowDia[i-1]
		st.diaInel[i] += st.diaInel[i-1]
	}
	total := int(st.rowDia[m])
	if total == 0 {
		st.rowDia, st.diaInel = nil, nil
		return st
	}
	st.runNNZ = nnz - st.diaInel[m]

	// Store the eligible rows' offsets in reordered order, indexed by
	// the rowDia prefix.
	st.diaOff = make([]int32, total)
	exec.ParallelRanges(m, prepWidth(), prepGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if st.rowDia[i+1] > st.rowDia[i] {
				st.diaOff[st.rowDia[i]] = rowOff[h.Perm[i]]
			}
		}
	})
	return st
}

// regionDiaParts returns the offset-row and fallback-nonzero counts a
// diagonal execution of the region walks: every dia-eligible row it
// touches, plus the nonzeros of its ineligible rows (executed through
// the per-row u32 fallback). Both are full-row counts — a region may
// start or end mid-row — so the byte estimate is an upper bound for
// boundary rows, exact everywhere else.
func (p *Prepared) regionDiaParts(r Region) (rows, inelNNZ int64) {
	st := &p.streams
	if st.diaOff == nil || r.Lo >= r.Hi {
		return 0, 0
	}
	last := rowOfPosition(p.h, r.Hi-1)
	return int64(st.rowDia[last+1] - st.rowDia[r.StartRow]),
		int64(st.diaInel[last+1] - st.diaInel[r.StartRow])
}

// diaBytes is the index-side bytes a diagonal execution streams for
// rows offset rows and inel fallback nonzeros.
func diaBytes(rows, inel int64) int64 { return 4*rows + 4*inel }

// regionFormat picks the cheapest stream (fewest index-side bytes) the
// region's rows can execute with. A region may start or end mid-row;
// an offset is per-row, so a partial fragment of an eligible row still
// reads the right columns and only the set of *touched* rows matters.
// Ties keep u32, so diagonal execution engages only when the offsets
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
	// segmented kernels read no offsets), so they never take IndexDia:
	// it would price offsets no kernel reads.
	if st.diaOff == nil || r.SegSum {
		return Index32
	}
	if p.opts.Index == IndexForceDia {
		return IndexDia
	}
	if rows, inel := p.regionDiaParts(r); rows > 0 && diaBytes(rows, inel) < 4*int64(r.Hi-r.Lo) {
		return IndexDia
	}
	return Index32
}

// assignFormats stamps every region with its index format and refreshes
// the partition-level stream gauges. It runs at Prepare and after every
// Repartition, after assignModes (a segmented region never takes
// IndexDia) and before the regions slice is published: boundary moves
// never rebuild streams, they only re-pick formats, so a region whose
// new row set no longer pays for offsets falls back to u32 ([]int when
// compression is off).
func (p *Prepared) assignFormats(regions []Region) {
	var bytes, modelIdx, diaRows int64
	var nnzBy [4]int64
	for i := range regions {
		f := p.regionFormat(regions[i])
		regions[i].Format = f
		n := int64(regions[i].Hi - regions[i].Lo)
		nnzBy[f] += n
		var b int64
		switch f {
		case IndexDia:
			rows, inel := p.regionDiaParts(regions[i])
			b = diaBytes(rows, inel)
			diaRows += rows
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
	gDiaRows.Set(diaRows)
	for f, g := range gNNZFormat {
		if g != nil {
			g.Set(nnzBy[f])
		}
	}
	// Cache the modeled structure traffic of one sweep (values, indexes
	// at the assigned widths, row pointers) for the per-multiply
	// effective-bandwidth gauge; runs before the regions are published,
	// so multiplies always see a price matching their formats.
	pm := costmodel.DefaultParams()
	valBytes := int64(p.mat.NNZ()) * int64(pm.ValBytes)
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
	// under the current region formats (for dia regions: row offsets
	// plus the u32 fallback indices of ineligible rows).
	StreamIndexBytes int
	// DiaRows is the number of diagonal offsets built (all dia-eligible
	// rows, whether or not a dia region covers them).
	DiaRows int
	// DiaEligibleNNZ counts nonzeros in dia-eligible rows (an upper
	// bound on the offset-covered assignment).
	DiaEligibleNNZ int
}

// IndexStats reports the per-format nnz split, index-stream bytes, and
// row-structure profile of the live partition.
func (p *Prepared) IndexStats() IndexStats {
	s := IndexStats{
		DiaRows:        len(p.streams.diaOff),
		DiaEligibleNNZ: p.streams.runNNZ,
	}
	for _, r := range *p.regions.Load() {
		n := r.Hi - r.Lo
		s.NNZByFormat[r.Format] += n
		if r.Format == IndexDia {
			s.StreamIndexBytes += int(diaBytes(p.regionDiaParts(r)))
		} else {
			s.StreamIndexBytes += n * r.Format.BytesPerIndex()
		}
	}
	return s
}
