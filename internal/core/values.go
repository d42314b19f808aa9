package core

import (
	"fmt"
	"math"

	"haspmv/internal/exec"
	"haspmv/internal/sparse"
)

// Compressed value streams. The float64 values are 8 of the 12-16 bytes
// moved per nonzero, so Prepare can derive a narrower physical value
// stream for the whole instance: a palette stream (1-byte indices into
// a table of at most PaletteMax distinct float64s — 0/1 adjacency and
// edge-weight graphs) that is exact because pal[palIdx[k]] is the very
// float64 the matrix stores. Unlike the per-region index formats the
// value format is one choice per instance (the value stream is shared
// by every region), stamped onto each Region as Region.Val so the
// fragment dispatch and the telemetry split stay region-granular.

// PaletteMax is the largest number of distinct values the palette
// stream can encode (the index stream is one byte per nonzero).
const PaletteMax = sparse.PaletteMax

// ValueFormat is the physical value encoding the execution streams
// read. The zero value is the matrix's own []float64.
type ValueFormat uint8

const (
	// ValF64 reads the matrix's own Val []float64 (8 bytes per value).
	ValF64 ValueFormat = iota
	// ValPalette reads 1-byte indices into a table of at most PaletteMax
	// distinct float64s; exact (the table entry is the stored float64).
	ValPalette
)

func (f ValueFormat) String() string {
	switch f {
	case ValF64:
		return "f64"
	case ValPalette:
		return "palette"
	default:
		return fmt.Sprintf("ValueFormat(%d)", int(f))
	}
}

// BytesPerValue returns the stream width of the format (the palette
// table itself is at most PaletteMax*8 bytes and lives in L1).
func (f ValueFormat) BytesPerValue() int {
	switch f {
	case ValPalette:
		return 1
	default:
		return 8
	}
}

// ValueMode selects which value stream Prepare builds. The zero value
// compresses when exactness allows it: the palette is bit-exact, so it
// engages automatically.
type ValueMode int

const (
	// ValueAuto builds the palette stream when the matrix has at most
	// PaletteMax distinct values, and the []float64 reference otherwise.
	ValueAuto ValueMode = iota
	// ValueReference skips value compression entirely (the oracle the
	// fuzz bit-equality stage compares against).
	ValueReference
)

func (m ValueMode) String() string {
	switch m {
	case ValueAuto:
		return "auto"
	case ValueReference:
		return "f64"
	default:
		return fmt.Sprintf("ValueMode(%d)", int(m))
	}
}

// valueStreams holds the compressed value stream of one instance, all
// indexed by original nnz position (parallel to CSR.Val) like the index
// streams.
type valueStreams struct {
	format ValueFormat
	// palIdx/pal are the palette stream (format ValPalette): Val[k] ==
	// pal[palIdx[k]] bit for bit. tab is pal padded to PaletteMax
	// entries, the form the kernels index without a bounds check.
	palIdx []uint8
	pal    []float64
	tab    *[PaletteMax]float64
	// distinct counts the distinct value bit patterns discovered;
	// PaletteMax+1 means the count aborted (more than PaletteMax).
	distinct int
}

// effValBytes is the value-stream width one multiply moves per nonzero,
// for the auto level-1 proportion.
func (vs *valueStreams) effValBytes() float64 {
	return float64(vs.format.BytesPerValue())
}

// buildValues derives the compressed value stream for a under mode.
// Values are keyed by their IEEE-754 bit patterns, not by float64
// comparison: 0.0 and -0.0 are distinct stream entries and NaNs (which
// compare unequal even to themselves) dedup by payload, so the palette
// reproduces every stored bit pattern exactly.
func buildValues(a *sparse.CSR, mode ValueMode) valueStreams {
	var vs valueStreams
	nnz := a.NNZ()
	if mode == ValueReference || nnz == 0 {
		return vs
	}
	// Palette discovery is serial with an early exit: matrices with rich
	// value sets blow past PaletteMax within the first few hundred
	// nonzeros, so the scan is far cheaper than one full sweep there.
	p, ok := sparse.FindPalette(a.Val)
	if !ok {
		vs.distinct = PaletteMax + 1
		return vs
	}
	vs.distinct = len(p.Vals)
	// Eligible: fill the index stream in parallel from the now read-only
	// table, skipping the probe while a value repeats its predecessor.
	vs.format = ValPalette
	vs.pal = p.Vals
	vs.tab = paletteTable(p.Vals)
	vs.palIdx = make([]uint8, nnz)
	exec.ParallelRanges(nnz, prepWidth(), prepGrain, func(_, lo, hi int) {
		last, idx := math.Float64bits(a.Val[lo]), p.Index(a.Val[lo])
		for k := lo; k < hi; k++ {
			if b := math.Float64bits(a.Val[k]); b != last {
				last, idx = b, p.Index(a.Val[k])
			}
			vs.palIdx[k] = idx
		}
	})
	return vs
}

// paletteTable pads a palette to the PaletteMax-entry table the kernels
// read (nil for no palette).
func paletteTable(pal []float64) *[PaletteMax]float64 {
	if len(pal) == 0 {
		return nil
	}
	var tab [PaletteMax]float64
	copy(tab[:], pal)
	return &tab
}

// ValueStats summarizes the value stream of the instance.
type ValueStats struct {
	// Format is the value encoding every region executes with.
	Format ValueFormat
	// Distinct is the number of distinct value bit patterns discovered
	// by Prepare; PaletteMax+1 means "more than PaletteMax" (the count
	// aborts early). Zero when value analysis was skipped
	// (ValueReference or an empty matrix).
	Distinct int
	// PaletteLen is the palette table size (0 unless Format is
	// ValPalette).
	PaletteLen int
	// StreamValueBytes is the total value bytes one multiply streams
	// (including the palette table once).
	StreamValueBytes int
}

// ValueStats reports the value-stream choice and its byte traffic.
func (p *Prepared) ValueStats() ValueStats {
	vs := &p.values
	s := ValueStats{
		Format:     vs.format,
		Distinct:   vs.distinct,
		PaletteLen: len(vs.pal),
	}
	s.StreamValueBytes = p.mat.NNZ()*vs.format.BytesPerValue() + 8*len(vs.pal)
	return s
}
