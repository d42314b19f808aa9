package kernel

// DIA-style diagonal-run kernels: fragments of rows whose nonzeros form
// few runs of consecutive columns execute from a compact run-descriptor
// stream with no column indices at all. A run is a maximal range of
// nonzero positions k whose columns are consecutive, so inside a run
// col(k) = ColMinusK + k with ColMinusK constant; the descriptor stores
// only that constant and where the run ends (8 bytes per run versus 4
// bytes per nonzero for the u32 stream). The x accesses inside a run
// are unit stride, which is the other half of the win on banded and
// stencil matrices.
//
// Every body is *bit-exact* with DotRange on the decoded columns: the
// bodies below reproduce the dispatch thresholds, accumulator-chain
// assignment, reduction trees, and sequential remainders of kernel.go
// and block.go. The run decoder only changes where the x operand is
// loaded from, never the order values are accumulated in.
//
// On banded and stencil matrices almost every row fragment lies inside a
// single run, so the descriptor degenerates to "a contiguous dot product
// at column offset ColMinusK": the entry points detect that case after
// skipping leading runs and take the contiguous paths at the end of this
// file, which have no run-boundary checks and no column loads at all.

// DiaRun describes one run of consecutive columns: nonzero positions
// [previous EndK, EndK) — positions are original-nnz offsets, the same
// space the value stream is indexed in — read x at column ColMinusK+k.
// Runs of one row are contiguous in k; the int32 fields gate the format
// to matrices under 2^31 nonzeros and columns.
type DiaRun struct {
	EndK      int32
	ColMinusK int32
}

// DotDia computes sum(v(k)*x[cmk+k]) for k in [lo, hi), where v(k) is
// the value operand as in Dot and cmk is the ColMinusK of the run
// containing k. runs[ri:] must cover [lo, hi) contiguously (ri may
// point at an earlier run of the same row; the kernel skips runs ending
// at or before lo). A fragment inside a single run — the common case on
// banded and stencil rows — takes the contiguous path.
func DotDia[V ValSource](vals []V, pal *[256]float64, runs []DiaRun, ri int, x []float64, lo, hi, unrollLen int) float64 {
	length := hi - lo
	if length <= 0 {
		return 0
	}
	for int(runs[ri].EndK) <= lo {
		ri++
	}
	if hi <= int(runs[ri].EndK) {
		return dotContig(vals, pal, x, lo, hi, int(runs[ri].ColMinusK), unrollLen)
	}
	if length < ScalarThreshold {
		runEnd, cmk := int(runs[ri].EndK), int(runs[ri].ColMinusK)
		sum := 0.0
		for k := lo; k < hi; k++ {
			for k >= runEnd {
				ri++
				runEnd, cmk = int(runs[ri].EndK), int(runs[ri].ColMinusK)
			}
			sum += valLoad(vals, pal, k) * x[cmk+k]
		}
		return sum
	}
	if length < unrollLen {
		return dotDia4(vals, pal, runs, ri, x, lo, hi)
	}
	return dotDia8(vals, pal, runs, ri, x, lo, hi)
}

// dotDia4 mirrors dot4: four accumulators, (a0+a2)+(a1+a3) reduction,
// sequential remainder. Groups of four that sit inside one run take the
// branch-free unit-stride path; a group straddling a run boundary
// decodes its columns one by one into the same lanes.
func dotDia4[V ValSource](vals []V, pal *[256]float64, runs []DiaRun, ri int, x []float64, lo, hi int) float64 {
	runEnd, cmk := int(runs[ri].EndK), int(runs[ri].ColMinusK)
	var a0, a1, a2, a3 float64
	k := lo
	for ; k+4 <= hi; k += 4 {
		if k+4 <= runEnd {
			c := cmk + k
			a0 += valLoad(vals, pal, k) * x[c]
			a1 += valLoad(vals, pal, k+1) * x[c+1]
			a2 += valLoad(vals, pal, k+2) * x[c+2]
			a3 += valLoad(vals, pal, k+3) * x[c+3]
		} else {
			var xs [4]float64
			for j := 0; j < 4; j++ {
				for k+j >= runEnd {
					ri++
					runEnd, cmk = int(runs[ri].EndK), int(runs[ri].ColMinusK)
				}
				xs[j] = x[cmk+k+j]
			}
			a0 += valLoad(vals, pal, k) * xs[0]
			a1 += valLoad(vals, pal, k+1) * xs[1]
			a2 += valLoad(vals, pal, k+2) * xs[2]
			a3 += valLoad(vals, pal, k+3) * xs[3]
		}
	}
	sum := (a0 + a2) + (a1 + a3)
	for ; k < hi; k++ {
		for k >= runEnd {
			ri++
			runEnd, cmk = int(runs[ri].EndK), int(runs[ri].ColMinusK)
		}
		sum += valLoad(vals, pal, k) * x[cmk+k]
	}
	return sum
}

// dotDia8 mirrors dot8: eight accumulators, the
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction, sequential remainder.
func dotDia8[V ValSource](vals []V, pal *[256]float64, runs []DiaRun, ri int, x []float64, lo, hi int) float64 {
	runEnd, cmk := int(runs[ri].EndK), int(runs[ri].ColMinusK)
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := lo
	for ; k+8 <= hi; k += 8 {
		if k+8 <= runEnd {
			c := cmk + k
			a0 += valLoad(vals, pal, k) * x[c]
			a1 += valLoad(vals, pal, k+1) * x[c+1]
			a2 += valLoad(vals, pal, k+2) * x[c+2]
			a3 += valLoad(vals, pal, k+3) * x[c+3]
			b0 += valLoad(vals, pal, k+4) * x[c+4]
			b1 += valLoad(vals, pal, k+5) * x[c+5]
			b2 += valLoad(vals, pal, k+6) * x[c+6]
			b3 += valLoad(vals, pal, k+7) * x[c+7]
		} else {
			var xs [8]float64
			for j := 0; j < 8; j++ {
				for k+j >= runEnd {
					ri++
					runEnd, cmk = int(runs[ri].EndK), int(runs[ri].ColMinusK)
				}
				xs[j] = x[cmk+k+j]
			}
			a0 += valLoad(vals, pal, k) * xs[0]
			a1 += valLoad(vals, pal, k+1) * xs[1]
			a2 += valLoad(vals, pal, k+2) * xs[2]
			a3 += valLoad(vals, pal, k+3) * xs[3]
			b0 += valLoad(vals, pal, k+4) * xs[4]
			b1 += valLoad(vals, pal, k+5) * xs[5]
			b2 += valLoad(vals, pal, k+6) * xs[6]
			b3 += valLoad(vals, pal, k+7) * xs[7]
		}
	}
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < hi; k++ {
		for k >= runEnd {
			ri++
			runEnd, cmk = int(runs[ri].EndK), int(runs[ri].ColMinusK)
		}
		sum += valLoad(vals, pal, k) * x[cmk+k]
	}
	return sum
}

// DotDiaBlock is the batch form of DotDia: sums[j] = DotDia(vals, pal,
// runs, ri, X[j], lo, hi, unrollLen), bit-identical per vector, on each
// contiguous X[j] directly. Each vector replays the same k range, so the
// decoder state at the start of a tile is saved once and restored per
// vector.
func DotDiaBlock[V ValSource](vals []V, pal *[256]float64, runs []DiaRun, ri int, X [][]float64, sums []float64, lo, hi, unrollLen int) {
	w := len(sums)
	length := hi - lo
	if length <= 0 {
		for j := 0; j < w; j++ {
			sums[j] = 0
		}
		return
	}
	for int(runs[ri].EndK) <= lo {
		ri++
	}
	if hi <= int(runs[ri].EndK) {
		dotBlockContig(vals, pal, X, sums, lo, hi, int(runs[ri].ColMinusK), unrollLen)
		return
	}
	if length < ScalarThreshold {
		for j := 0; j < w; j++ {
			x := X[j]
			rj, runEnd, cmk := ri, int(runs[ri].EndK), int(runs[ri].ColMinusK)
			sum := 0.0
			for k := lo; k < hi; k++ {
				for k >= runEnd {
					rj++
					runEnd, cmk = int(runs[rj].EndK), int(runs[rj].ColMinusK)
				}
				sum += valLoad(vals, pal, k) * x[cmk+k]
			}
			sums[j] = sum
		}
		return
	}
	if length < unrollLen {
		dotBlockDia4(vals, pal, runs, ri, X, sums, lo, hi, w)
		return
	}
	dotBlockDia8(vals, pal, runs, ri, X, sums, lo, hi, w)
}

// diaAdvance moves the decoder past runs ending at or before k and
// returns the updated state.
func diaAdvance(runs []DiaRun, ri, k int) (int, int, int) {
	for int(runs[ri].EndK) <= k {
		ri++
	}
	return ri, int(runs[ri].EndK), int(runs[ri].ColMinusK)
}

// dotBlockDia4 is dot4 per vector over decoded columns, a blockTile of
// nonzeros at a time for every vector, its chains carried across tiles
// in acc, then dot4's reduction and sequential remainder.
func dotBlockDia4[V ValSource](vals []V, pal *[256]float64, runs []DiaRun, ri int, X [][]float64, sums []float64, lo, hi, w int) {
	var acc [MaxBlock][4]float64
	k4 := lo + (hi-lo)&^3
	riT := ri // decoder state at the current tile start (same for every vector)
	for kt := lo; kt < k4; kt += blockTile {
		kend := kt + blockTile
		if kend > k4 {
			kend = k4
		}
		riNext := riT
		for j := 0; j < w; j++ {
			x := X[j]
			rj, runEnd, cmk := riT, int(runs[riT].EndK), int(runs[riT].ColMinusK)
			a0, a1, a2, a3 := acc[j][0], acc[j][1], acc[j][2], acc[j][3]
			for k := kt; k < kend; k += 4 {
				if k+4 <= runEnd {
					c := cmk + k
					a0 += valLoad(vals, pal, k) * x[c]
					a1 += valLoad(vals, pal, k+1) * x[c+1]
					a2 += valLoad(vals, pal, k+2) * x[c+2]
					a3 += valLoad(vals, pal, k+3) * x[c+3]
				} else {
					var xs [4]float64
					for jj := 0; jj < 4; jj++ {
						for k+jj >= runEnd {
							rj++
							runEnd, cmk = int(runs[rj].EndK), int(runs[rj].ColMinusK)
						}
						xs[jj] = x[cmk+k+jj]
					}
					a0 += valLoad(vals, pal, k) * xs[0]
					a1 += valLoad(vals, pal, k+1) * xs[1]
					a2 += valLoad(vals, pal, k+2) * xs[2]
					a3 += valLoad(vals, pal, k+3) * xs[3]
				}
			}
			acc[j][0], acc[j][1], acc[j][2], acc[j][3] = a0, a1, a2, a3
			riNext = rj
		}
		riT = riNext
	}
	var riR, runEndR, cmkR int
	if k4 < hi {
		riR, runEndR, cmkR = diaAdvance(runs, riT, k4)
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := (a[0] + a[2]) + (a[1] + a[3])
		rj, runEnd, cmk := riR, runEndR, cmkR
		for k := k4; k < hi; k++ {
			for k >= runEnd {
				rj++
				runEnd, cmk = int(runs[rj].EndK), int(runs[rj].ColMinusK)
			}
			sum += valLoad(vals, pal, k) * x[cmk+k]
		}
		sums[j] = sum
	}
}

// dotBlockDia8 is dotBlockDia4 with dot8's eight chains and its
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction.
func dotBlockDia8[V ValSource](vals []V, pal *[256]float64, runs []DiaRun, ri int, X [][]float64, sums []float64, lo, hi, w int) {
	var acc [MaxBlock][8]float64
	k8 := lo + (hi-lo)&^7
	riT := ri
	for kt := lo; kt < k8; kt += blockTile {
		kend := kt + blockTile
		if kend > k8 {
			kend = k8
		}
		riNext := riT
		for j := 0; j < w; j++ {
			x := X[j]
			a := &acc[j]
			rj, runEnd, cmk := riT, int(runs[riT].EndK), int(runs[riT].ColMinusK)
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := a[4], a[5], a[6], a[7]
			for k := kt; k < kend; k += 8 {
				if k+8 <= runEnd {
					c := cmk + k
					a0 += valLoad(vals, pal, k) * x[c]
					a1 += valLoad(vals, pal, k+1) * x[c+1]
					a2 += valLoad(vals, pal, k+2) * x[c+2]
					a3 += valLoad(vals, pal, k+3) * x[c+3]
					b0 += valLoad(vals, pal, k+4) * x[c+4]
					b1 += valLoad(vals, pal, k+5) * x[c+5]
					b2 += valLoad(vals, pal, k+6) * x[c+6]
					b3 += valLoad(vals, pal, k+7) * x[c+7]
				} else {
					var xs [8]float64
					for jj := 0; jj < 8; jj++ {
						for k+jj >= runEnd {
							rj++
							runEnd, cmk = int(runs[rj].EndK), int(runs[rj].ColMinusK)
						}
						xs[jj] = x[cmk+k+jj]
					}
					a0 += valLoad(vals, pal, k) * xs[0]
					a1 += valLoad(vals, pal, k+1) * xs[1]
					a2 += valLoad(vals, pal, k+2) * xs[2]
					a3 += valLoad(vals, pal, k+3) * xs[3]
					b0 += valLoad(vals, pal, k+4) * xs[4]
					b1 += valLoad(vals, pal, k+5) * xs[5]
					b2 += valLoad(vals, pal, k+6) * xs[6]
					b3 += valLoad(vals, pal, k+7) * xs[7]
				}
			}
			a[0], a[1], a[2], a[3] = a0, a1, a2, a3
			a[4], a[5], a[6], a[7] = b0, b1, b2, b3
			riNext = rj
		}
		riT = riNext
	}
	var riR, runEndR, cmkR int
	if k8 < hi {
		riR, runEndR, cmkR = diaAdvance(runs, riT, k8)
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := ((a[0] + a[2]) + (a[1] + a[3])) + ((a[4] + a[6]) + (a[5] + a[7]))
		rj, runEnd, cmk := riR, runEndR, cmkR
		for k := k8; k < hi; k++ {
			for k >= runEnd {
				rj++
				runEnd, cmk = int(runs[rj].EndK), int(runs[rj].ColMinusK)
			}
			sum += valLoad(vals, pal, k) * x[cmk+k]
		}
		sums[j] = sum
	}
}

// dotContig computes sum(v(k)*x[cmk+k]) for k in [lo, hi) inside one
// run, with Dot's scalar/4-wide/8-wide dispatch. The unrolled bodies get
// both operands re-sliced to the fragment so they run bounds-check free;
// on short stencil rows the bounds checks and per-group run test are the
// overhead that would make the descriptor stream slower than u32
// despite moving a third of the bytes.
func dotContig[V ValSource](vals []V, pal *[256]float64, x []float64, lo, hi, cmk, unrollLen int) float64 {
	length := hi - lo
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[cmk+k]
		}
		return sum
	}
	if length < unrollLen {
		return dotContig4(vals[lo:hi], pal, x[cmk+lo:cmk+hi])
	}
	return dotContig8(vals[lo:hi], pal, x[cmk+lo:cmk+hi])
}

// dotContig4 mirrors dot4 over re-sliced operands (len(xs) == len(v)).
func dotContig4[V ValSource](v []V, pal *[256]float64, xs []float64) float64 {
	xs = xs[:len(v)]
	var a0, a1, a2, a3 float64
	k := 0
	for ; k+4 <= len(v); k += 4 {
		a0 += valLoad(v, pal, k) * xs[k]
		a1 += valLoad(v, pal, k+1) * xs[k+1]
		a2 += valLoad(v, pal, k+2) * xs[k+2]
		a3 += valLoad(v, pal, k+3) * xs[k+3]
	}
	sum := (a0 + a2) + (a1 + a3)
	for ; k < len(v); k++ {
		sum += valLoad(v, pal, k) * xs[k]
	}
	return sum
}

// dotContig8 mirrors dot8 over re-sliced operands (len(xs) == len(v)).
func dotContig8[V ValSource](v []V, pal *[256]float64, xs []float64) float64 {
	xs = xs[:len(v)]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := 0
	for ; k+8 <= len(v); k += 8 {
		a0 += valLoad(v, pal, k) * xs[k]
		a1 += valLoad(v, pal, k+1) * xs[k+1]
		a2 += valLoad(v, pal, k+2) * xs[k+2]
		a3 += valLoad(v, pal, k+3) * xs[k+3]
		b0 += valLoad(v, pal, k+4) * xs[k+4]
		b1 += valLoad(v, pal, k+5) * xs[k+5]
		b2 += valLoad(v, pal, k+6) * xs[k+6]
		b3 += valLoad(v, pal, k+7) * xs[k+7]
	}
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < len(v); k++ {
		sum += valLoad(v, pal, k) * xs[k]
	}
	return sum
}

// dotBlockContig is DotDiaBlock over a single contiguous run: sums[j] =
// dotContig(vals, pal, X[j], lo, hi, cmk, unrollLen), with the tile
// structure and chain carry of dotBlockDia4/dotBlockDia8.
func dotBlockContig[V ValSource](vals []V, pal *[256]float64, X [][]float64, sums []float64, lo, hi, cmk, unrollLen int) {
	w := len(sums)
	length := hi - lo
	if length < ScalarThreshold {
		for j := 0; j < w; j++ {
			x := X[j]
			sum := 0.0
			for k := lo; k < hi; k++ {
				sum += valLoad(vals, pal, k) * x[cmk+k]
			}
			sums[j] = sum
		}
		return
	}
	if length < unrollLen {
		dotBlockContig4(vals, pal, X, sums, lo, hi, cmk, w)
		return
	}
	dotBlockContig8(vals, pal, X, sums, lo, hi, cmk, w)
}

// dotBlockContig4 mirrors dotBlockDia4 with contiguous columns.
func dotBlockContig4[V ValSource](vals []V, pal *[256]float64, X [][]float64, sums []float64, lo, hi, cmk, w int) {
	var acc [MaxBlock][4]float64
	k4 := lo + (hi-lo)&^3
	for kt := lo; kt < k4; kt += blockTile {
		kend := kt + blockTile
		if kend > k4 {
			kend = k4
		}
		for j := 0; j < w; j++ {
			x := X[j]
			a0, a1, a2, a3 := acc[j][0], acc[j][1], acc[j][2], acc[j][3]
			for k := kt; k < kend; k += 4 {
				c := cmk + k
				a0 += valLoad(vals, pal, k) * x[c]
				a1 += valLoad(vals, pal, k+1) * x[c+1]
				a2 += valLoad(vals, pal, k+2) * x[c+2]
				a3 += valLoad(vals, pal, k+3) * x[c+3]
			}
			acc[j][0], acc[j][1], acc[j][2], acc[j][3] = a0, a1, a2, a3
		}
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := (a[0] + a[2]) + (a[1] + a[3])
		for k := k4; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[cmk+k]
		}
		sums[j] = sum
	}
}

// dotBlockContig8 mirrors dotBlockDia8 with contiguous columns.
func dotBlockContig8[V ValSource](vals []V, pal *[256]float64, X [][]float64, sums []float64, lo, hi, cmk, w int) {
	var acc [MaxBlock][8]float64
	k8 := lo + (hi-lo)&^7
	for kt := lo; kt < k8; kt += blockTile {
		kend := kt + blockTile
		if kend > k8 {
			kend = k8
		}
		for j := 0; j < w; j++ {
			x := X[j]
			a := &acc[j]
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := a[4], a[5], a[6], a[7]
			for k := kt; k < kend; k += 8 {
				c := cmk + k
				a0 += valLoad(vals, pal, k) * x[c]
				a1 += valLoad(vals, pal, k+1) * x[c+1]
				a2 += valLoad(vals, pal, k+2) * x[c+2]
				a3 += valLoad(vals, pal, k+3) * x[c+3]
				b0 += valLoad(vals, pal, k+4) * x[c+4]
				b1 += valLoad(vals, pal, k+5) * x[c+5]
				b2 += valLoad(vals, pal, k+6) * x[c+6]
				b3 += valLoad(vals, pal, k+7) * x[c+7]
			}
			a[0], a[1], a[2], a[3] = a0, a1, a2, a3
			a[4], a[5], a[6], a[7] = b0, b1, b2, b3
		}
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := ((a[0] + a[2]) + (a[1] + a[3])) + ((a[4] + a[6]) + (a[5] + a[7]))
		for k := k8; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[cmk+k]
		}
		sums[j] = sum
	}
}
