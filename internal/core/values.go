package core

// Every instance streams the matrix's own []float64 values, as the
// paper's Algorithm 6 does. The names below keep perfbench's per-layer
// report and its pinned reference compiling; none of them changes what
// Prepare builds.

// ValueFormat is the physical value encoding the execution streams
// read.
type ValueFormat uint8

const (
	// ValF64 reads the matrix's own Val []float64 (8 bytes per value).
	ValF64 ValueFormat = iota
	// ValPalette is never assigned; perfbench's format-share report
	// still compares against it.
	ValPalette
)

// ValueMode is the type of Options.Value, which Prepare ignores.
type ValueMode int

// ValueReference is ignored; perfbench's pinned reference still sets it.
const ValueReference ValueMode = 1

// ValueStats summarizes the value stream of the instance.
type ValueStats struct {
	// Format is the value encoding every region executes with.
	Format ValueFormat
	// StreamValueBytes is the total value bytes one multiply streams.
	StreamValueBytes int
}

// ValueStats reports ValF64 at 8 B/nnz; perfbench's bytes-per-nonzero
// report reads it.
func (p *Prepared) ValueStats() ValueStats {
	return ValueStats{Format: ValF64, StreamValueBytes: 8 * p.mat.NNZ()}
}
