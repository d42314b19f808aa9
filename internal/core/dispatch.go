package core

import "haspmv/internal/kernel"

// Kernel dispatch. The kernels are generic over the column stream C, so
// it is resolved once per region and vector tile, before any kernel
// runs: batchRegion picks the instance's stream (u32, or the []int
// reference), then hands it to the one region body every vector count
// shares (batchSegSumRegion when the instance runs segmented,
// walkBatchFragments under ExecSerial). Inside a region the only per-fragment choice left
// is the tile width (width 1 takes Dot/SegSum, wider tiles the block
// kernels). Everything here is a plain function with scalar arguments
// (no closures, no per-call state), so the zero-alloc guarantee of the
// callers is preserved.

// batchRegion runs one region of a multiply for the vector tile
// [v0, v0+w) and returns the fragments processed.
func batchRegion(s *batchScratch, id int, reg Region, v0, w int) int {
	if s.p.col32 == nil {
		return batchRegionCols(s, id, reg, v0, w, s.p.mat.ColIdx)
	}
	return batchRegionCols(s, id, reg, v0, w, s.p.col32)
}

func batchRegionCols[C kernel.ColIndex](s *batchScratch, id int, reg Region, v0, w int, col []C) int {
	if s.p.segs != nil {
		return batchSegSumRegion(s, id, reg, v0, w, col)
	}
	return walkBatchFragments(s, id, reg.Lo, reg.Hi, reg.StartRow, v0, w, col)
}
