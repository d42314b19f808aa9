package core

import (
	"fmt"
	"math"

	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry"
)

// The column-index stream every region executes with. SpMV is stream
// bound and []int column indices are 8 of the 16 bytes moved per
// nonzero, so Prepare copies them once into a u32 absolute stream (4
// bytes per nonzero) and every region walks that. The []int stream is
// kept only under IndexReference, as the oracle the fuzz bit-equality
// stage compares against; results are bit-identical across the two
// because both run the same kernel body, instantiated per column type,
// over the same operand values.

// Stream-build telemetry (no-ops while telemetry is disabled).
var (
	gStreamBytes = telemetry.NewGauge("core_index_stream_bytes")
	gValueBytes  = telemetry.NewGauge("core_value_stream_bytes")
	// Indexed by IndexFormat: IndexInt, Index32.
	gNNZFormat = [2]*telemetry.Gauge{
		telemetry.NewGauge("core_partition_nnz_int"),
		telemetry.NewGauge("core_partition_nnz_u32"),
	}
	cNNZFormat = [2]*telemetry.Counter{
		telemetry.NewCounter("core_nnz_int"),
		telemetry.NewCounter("core_nnz_u32"),
	}
)

// IndexFormat is the physical column-index encoding an instance
// executes with.
type IndexFormat uint8

const (
	// IndexInt walks the matrix's own ColIdx []int (8 bytes per index).
	IndexInt IndexFormat = iota
	// Index32 walks the u32 absolute stream (4 bytes per index).
	Index32
	// Index16 and IndexDia are never assigned. They stay declared so
	// that NNZByFormat keeps its four slots, which perfbench's per-format
	// shares index.
	Index16
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
func (f IndexFormat) BytesPerIndex() int {
	if f == Index32 {
		return 4
	}
	return 8
}

// IndexMode selects which column-index stream Prepare builds. The zero
// value compresses: every caller gets the u32 stream unless it opts
// out.
type IndexMode int

const (
	// IndexAuto builds the u32 stream; every region executes with it.
	IndexAuto IndexMode = iota
	// IndexReference skips compression entirely: every region walks the
	// original []int ColIdx (the oracle the fuzz stage compares against).
	IndexReference
)

func (m IndexMode) String() string {
	switch m {
	case IndexAuto:
		return "auto"
	case IndexReference:
		return "int"
	default:
		return fmt.Sprintf("IndexMode(%d)", int(m))
	}
}

// checkSize is the one size limit of a prepared instance: the u32
// column stream and the int32 fields of the segment descriptors hold
// row, column and nonzero indices, so none of the three counts may
// exceed math.MaxInt32. Prepare and RestorePrepared check it before
// they build or accept any stream.
func checkSize(rows, cols, nnz int) error {
	if int64(rows) > math.MaxInt32 || int64(cols) > math.MaxInt32 || int64(nnz) > math.MaxInt32 {
		return fmt.Errorf("core: %dx%d matrix with %d nonzeros exceeds the 32-bit limit of %d rows, columns or nonzeros",
			rows, cols, nnz, math.MaxInt32)
	}
	return nil
}

// buildCol32 copies the column indices of a into the u32 stream, in
// original nnz order, as one chunked parallel sweep. It returns nil
// under IndexReference.
func buildCol32(a *sparse.CSR, mode IndexMode) []uint32 {
	if mode == IndexReference {
		return nil
	}
	nnz := a.NNZ()
	col32 := make([]uint32, nnz)
	exec.ParallelRanges(nnz, prepWidth(), prepGrain, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			col32[k] = uint32(a.ColIdx[k])
		}
	})
	return col32
}

// format is the column-index stream every region of the instance
// executes with: u32, or []int when compression is off.
func (p *Prepared) format() IndexFormat {
	if p.col32 == nil {
		return IndexInt
	}
	return Index32
}

// structBytes is the modeled memory traffic of one sweep over the
// matrix structure at the cost model's widths: values, 4-byte column
// indices (the u32 stream, and the paper's CSR width, which the []int
// reference is priced at) and row pointers.
func (p *Prepared) structBytes() int64 {
	pm := costmodel.DefaultParams()
	return int64(p.mat.NNZ())*int64(pm.ValBytes+pm.IdxBytes) + int64(p.mat.Rows)*int64(pm.PtrBytes)
}

// recordStreams sets the stream gauges of a new instance.
func (p *Prepared) recordStreams() {
	nnz := int64(p.mat.NNZ())
	f := p.format()
	gStreamBytes.Set(nnz * int64(f.BytesPerIndex()))
	gValueBytes.Set(nnz * int64(costmodel.DefaultParams().ValBytes))
	for g, gauge := range gNNZFormat {
		n := int64(0)
		if IndexFormat(g) == f {
			n = nnz
		}
		gauge.Set(n)
	}
}

// IndexStats summarizes the column-index stream of the instance.
type IndexStats struct {
	// NNZByFormat counts nonzeros per execution format, indexed by
	// IndexFormat (int, u32, u16, dia); the u16 and dia slots stay 0.
	NNZByFormat [4]int
	// StreamIndexBytes is the total index bytes one multiply streams.
	StreamIndexBytes int
}

// IndexStats reports the per-format nnz split and index-stream bytes of
// the instance.
func (p *Prepared) IndexStats() IndexStats {
	var s IndexStats
	f, nnz := p.format(), p.mat.NNZ()
	s.NNZByFormat[f] = nnz
	s.StreamIndexBytes = nnz * f.BytesPerIndex()
	return s
}
