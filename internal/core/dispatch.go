package core

import "haspmv/internal/kernel"

// Kernel dispatch for the pluggable execution formats. The kernels are
// generic over the column stream C, so it is resolved once per region
// and vector tile, before any kernel runs: batchRegion switches once
// over the region's IndexFormat, then hands the resolved stream to the
// one region body every vector count shares (walkBatchFragments, or
// batchSegSumRegion for a segmented region). Inside a region the only
// per-fragment choices left are the tile width (width 1 takes
// Dot/DotDia/SegSum, wider tiles the block kernels) and whether a dia
// region's row has a diagonal offset: the offset stream only covers
// dia-eligible rows, and a fragment of an ineligible row falls back to
// the u32 stream. Segmented regions are never stamped IndexDia (see
// regionFormat). Everything here is a plain function with scalar
// arguments (no closures, no per-call state), so the zero-alloc
// guarantee of the callers is preserved.

// batchRegion runs one region of a multiply for the vector tile
// [v0, v0+w) and returns the fragments processed.
func batchRegion(s *batchScratch, id int, reg Region, v0, w int) int {
	switch reg.Format {
	case IndexInt:
		return batchRegionCols(s, id, reg, v0, w, s.p.mat.ColIdx)
	default: // Index32, and the fallback rows of an IndexDia region
		return batchRegionCols(s, id, reg, v0, w, s.p.streams.col32)
	}
}

func batchRegionCols[C kernel.ColIndex](s *batchScratch, id int, reg Region, v0, w int, col []C) int {
	if reg.SegSum {
		return batchSegSumRegion(s, id, reg, v0, w, col)
	}
	return walkBatchFragments(s, id, reg, reg.Lo, reg.Hi, reg.StartRow, v0, w, col)
}

// gathers reports whether any row of the partition regs reads x through
// a column stream — every non-empty region but a dia region whose rows
// all have diagonal offsets — and so whether a batch call must interleave
// its x tiles for the block kernels.
func (p *Prepared) gathers(regs []Region) bool {
	inel := p.streams.diaInel
	for _, r := range regs {
		if r.Lo < r.Hi && (r.Format != IndexDia || inel[r.EndRow+1] > inel[r.StartRow]) {
			return true
		}
	}
	return false
}
