package core

import "haspmv/internal/kernel"

// Kernel dispatch for the pluggable execution formats. The kernels are
// generic over the value stream V (f64 or palette) and the column
// stream C, so both are resolved once per region, before any kernel
// runs: run branches on the region's ValueFormat and the functions below
// switch once over its IndexFormat, then hand the resolved streams to
// the generic region bodies (walkFragments/segSumRegion for Compute,
// walkBatchFragments/batchSegSumRegion for ComputeBatch). Inside a
// region the only per-fragment choice left is whether a dia region's
// row has run descriptors: the descriptor stream only covers
// dia-eligible rows, and a fragment of an ineligible row falls back to
// the u32 stream — per row, mirroring how SegSum regions drop
// individual fragments back to the dot-product path. Segmented regions
// are never stamped IndexDia (see regionFormat). Everything here is a
// plain function with scalar arguments (no closures, no per-call
// state), so the zero-alloc guarantee of the callers is preserved.

// computeRegion runs one region of a Compute call over the value
// stream vals (pal is the palette table, nil for f64) and returns the
// fragments processed.
func computeRegion[V kernel.ValSource](s *computeScratch, id int, reg Region, vals []V, pal *[PaletteMax]float64) int {
	st := &s.p.streams
	switch reg.Format {
	case Index16:
		return computeRegionCols(s, id, reg, vals, pal, st.col16, st.rowBase)
	case IndexInt:
		return computeRegionCols(s, id, reg, vals, pal, s.p.mat.ColIdx, nil)
	default: // Index32, and the fallback rows of an IndexDia region
		return computeRegionCols(s, id, reg, vals, pal, st.col32, nil)
	}
}

func computeRegionCols[V kernel.ValSource, C kernel.ColIndex](s *computeScratch, id int, reg Region, vals []V, pal *[PaletteMax]float64, col []C, bases []int) int {
	if reg.SegSum {
		return segSumRegion(s, id, reg, vals, pal, col, bases)
	}
	return walkFragments(s, id, reg, reg.Lo, reg.Hi, reg.StartRow, vals, pal, col, bases)
}

// batchRegion is computeRegion for one region of a ComputeBatch call.
func batchRegion[V kernel.ValSource](s *batchScratch, id int, reg Region, vals []V, pal *[PaletteMax]float64) int {
	st := &s.p.streams
	switch reg.Format {
	case Index16:
		return batchRegionCols(s, id, reg, vals, pal, st.col16, st.rowBase)
	case IndexInt:
		return batchRegionCols(s, id, reg, vals, pal, s.p.mat.ColIdx, nil)
	default: // Index32, and the fallback rows of an IndexDia region
		return batchRegionCols(s, id, reg, vals, pal, st.col32, nil)
	}
}

func batchRegionCols[V kernel.ValSource, C kernel.ColIndex](s *batchScratch, id int, reg Region, vals []V, pal *[PaletteMax]float64, col []C, bases []int) int {
	if reg.SegSum {
		return batchSegSumRegion(s, id, reg, vals, pal, col, bases)
	}
	return walkBatchFragments(s, id, reg, reg.Lo, reg.Hi, reg.StartRow, vals, pal, col, bases)
}
