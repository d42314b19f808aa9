package kernel

// DIA-style diagonal kernels: a row whose nonzeros are one run of
// consecutive columns executes with no column indices at all. Inside
// the run col(k) = off + k for a constant off (k is the original-nnz
// position, the same space the value stream is indexed in), so the
// stream stores only that 4-byte offset per row (versus 4 bytes per
// nonzero for the u32 stream) and x is read at unit stride, which is
// the other half of the win on banded and stencil matrices.
//
// Every body is *bit-exact* with DotRange on the decoded columns: the
// bodies below reproduce the dispatch thresholds, accumulator-chain
// assignment, reduction trees, and sequential remainders of kernel.go
// and block.go. The offset only changes where the x operand is loaded
// from, never the order values are accumulated in.

// DotDia computes sum(v(k)*x[off+k]) for k in [lo, hi), where v(k) is
// the value operand as in Dot: the fragment [lo, hi) of a row whose
// columns are off+k. It has Dot's scalar/4-wide/8-wide dispatch; the
// unrolled bodies get both operands re-sliced to the fragment so they
// run bounds-check free, which on short stencil rows is the overhead
// that would otherwise make the offset stream slower than u32.
func DotDia[V ValSource](vals []V, pal *[256]float64, off int, x []float64, lo, hi, unrollLen int) float64 {
	length := hi - lo
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[off+k]
		}
		return sum
	}
	if length < unrollLen {
		return dotContig4(vals[lo:hi], pal, x[off+lo:off+hi])
	}
	return dotContig8(vals[lo:hi], pal, x[off+lo:off+hi])
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

// DotDiaBlock is the batch form of DotDia: sums[j] = DotDia(vals, pal,
// off, X[j], lo, hi, unrollLen), bit-identical per vector, reading each
// contiguous X[j] directly. The unrolled bodies walk a blockTile of
// nonzeros at a time for every vector, its chains carried across tiles.
func DotDiaBlock[V ValSource](vals []V, pal *[256]float64, off int, X [][]float64, sums []float64, lo, hi, unrollLen int) {
	w := len(sums)
	length := hi - lo
	if length < ScalarThreshold {
		for j := 0; j < w; j++ {
			x := X[j]
			sum := 0.0
			for k := lo; k < hi; k++ {
				sum += valLoad(vals, pal, k) * x[off+k]
			}
			sums[j] = sum
		}
		return
	}
	if length < unrollLen {
		dotBlockContig4(vals, pal, X, sums, lo, hi, off, w)
		return
	}
	dotBlockContig8(vals, pal, X, sums, lo, hi, off, w)
}

// dotBlockContig4 is dot4 per vector at columns off+k, a blockTile of
// nonzeros at a time for every vector, its chains carried across tiles
// in acc, then dot4's reduction and sequential remainder.
func dotBlockContig4[V ValSource](vals []V, pal *[256]float64, X [][]float64, sums []float64, lo, hi, off, w int) {
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
				c := off + k
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
			sum += valLoad(vals, pal, k) * x[off+k]
		}
		sums[j] = sum
	}
}

// dotBlockContig8 is dotBlockContig4 with dot8's eight chains and its
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction.
func dotBlockContig8[V ValSource](vals []V, pal *[256]float64, X [][]float64, sums []float64, lo, hi, off, w int) {
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
				c := off + k
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
			sum += valLoad(vals, pal, k) * x[off+k]
		}
		sums[j] = sum
	}
}
