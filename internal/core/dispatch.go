package core

import "haspmv/internal/kernel"

// Fragment dispatch for the pluggable execution formats: every hot-path
// fragment walk (Compute, ComputeBatch, and the segmented-sum lead/tail
// fragments) funnels through these two functions, which select the
// kernel for the region's (index format × value format) pair. The
// branches are loop-invariant per region, so they predict perfectly
// across a region's fragments; both functions are plain methods with
// scalar arguments (no closures, no per-call state), so the zero-alloc
// guarantee of the callers is preserved.
//
// Diagonal regions resolve one level deeper: the descriptor stream only
// covers dia-eligible rows, and a fragment of an ineligible row inside
// a dia region falls back to the u32 stream — per row, mirroring how
// SegSum regions drop individual fragments back to the dot-product
// path.

// dotFragment computes one row fragment [klo, khi) of reordered row r
// against x, through the kernel matching (f, vf).
func (p *Prepared) dotFragment(f IndexFormat, vf ValueFormat, r, klo, khi, un int, x []float64) float64 {
	st := &p.streams
	vs := &p.values
	if f == IndexDia {
		if st.rowRun[r+1] > st.rowRun[r] {
			ri := int(st.rowRun[r])
			switch vf {
			case ValPalette:
				return kernel.DotRangeDiagPalette(vs.palIdx, vs.pal, st.runs, ri, x, klo, khi, un)
			default:
				return kernel.DotRangeDiag(p.mat.Val, st.runs, ri, x, klo, khi, un)
			}
		}
		f = Index32
	}
	switch vf {
	case ValPalette:
		switch f {
		case Index32:
			return kernel.DotRangePalette(vs.palIdx, vs.pal, st.col32, 0, x, klo, khi, un)
		case Index16:
			return kernel.DotRangePalette(vs.palIdx, vs.pal, st.col16, st.rowBase[r], x, klo, khi, un)
		default:
			return kernel.DotRangePalette(vs.palIdx, vs.pal, p.mat.ColIdx, 0, x, klo, khi, un)
		}
	default:
		switch f {
		case Index32:
			return kernel.DotRange32(p.mat.Val, st.col32, x, klo, khi, un)
		case Index16:
			return kernel.DotRange16Delta(p.mat.Val, st.col16, st.rowBase[r], x, klo, khi, un)
		default:
			return kernel.DotRange(p.mat.Val, p.mat.ColIdx, x, klo, khi, un)
		}
	}
}

// dotFragmentBlock is dotFragment over a batch block: sums[j] receives
// the fragment's dot product against X[j], bit-identical per vector to
// w independent dotFragment calls' kernels.
func (p *Prepared) dotFragmentBlock(f IndexFormat, vf ValueFormat, r, klo, khi, un int, X [][]float64, sums []float64) {
	st := &p.streams
	vs := &p.values
	if f == IndexDia {
		if st.rowRun[r+1] > st.rowRun[r] {
			ri := int(st.rowRun[r])
			switch vf {
			case ValPalette:
				kernel.DotRangeBlockDiagPalette(vs.palIdx, vs.pal, st.runs, ri, X, sums, klo, khi, un)
			default:
				kernel.DotRangeBlockDiag(p.mat.Val, st.runs, ri, X, sums, klo, khi, un)
			}
			return
		}
		f = Index32
	}
	switch vf {
	case ValPalette:
		switch f {
		case Index32:
			kernel.DotRangeBlockPalette(vs.palIdx, vs.pal, st.col32, 0, X, sums, klo, khi, un)
		case Index16:
			kernel.DotRangeBlockPalette(vs.palIdx, vs.pal, st.col16, st.rowBase[r], X, sums, klo, khi, un)
		default:
			kernel.DotRangeBlockPalette(vs.palIdx, vs.pal, p.mat.ColIdx, 0, X, sums, klo, khi, un)
		}
	default:
		switch f {
		case Index32:
			kernel.DotRangeBlock32(p.mat.Val, st.col32, X, sums, klo, khi, un)
		case Index16:
			kernel.DotRangeBlock16Delta(p.mat.Val, st.col16, st.rowBase[r], X, sums, klo, khi, un)
		default:
			kernel.DotRangeBlock(p.mat.Val, p.mat.ColIdx, X, sums, klo, khi, un)
		}
	}
}
