package kernel

// Contiguous fast paths for the diagonal-run kernels. On banded and
// stencil matrices almost every row fragment lies inside a single run,
// so the descriptor degenerates to "a contiguous dot product at column
// offset ColMinusK": no run-boundary checks inside the loop, no column
// loads at all, and unit-stride access on both operands. The entry
// points in diag.go detect that case after skipping leading runs and
// route here; multi-run fragments keep the general decoder.
//
// The float64 bodies are deliberately non-generic: the run-walk kernels
// read values through the generic valLoad (whose palette-nil branch the
// compiler cannot hoist), and on short stencil rows that per-element
// branch plus the per-group run check is exactly the overhead that made
// the descriptor stream slower than u32 despite moving a third of the
// bytes. Chain assignment, reduction trees, and remainders mirror
// dot4/dot8/dotBlock4/dotBlock8 statement for statement, so every
// result stays bit-identical to DotRange on the decoded columns.

// dotContigF64 computes sum(val[k]*x[cmk+k]) for k in [lo, hi) with
// DotRange's scalar/4-wide/8-wide dispatch.
func dotContigF64(val, x []float64, lo, hi, cmk, unrollLen int) float64 {
	length := hi - lo
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += val[k] * x[cmk+k]
		}
		return sum
	}
	if length < unrollLen {
		return dotContig4F64(val, x, lo, hi, cmk)
	}
	return dotContig8F64(val, x, lo, hi, cmk)
}

// dotContig4F64 mirrors dot4: four accumulators, (a0+a2)+(a1+a3)
// reduction, sequential remainder. Both operands are re-sliced to the
// fragment so the loop bodies run bounds-check free.
func dotContig4F64(val, x []float64, lo, hi, cmk int) float64 {
	v := val[lo:hi]
	xs := x[cmk+lo : cmk+hi]
	xs = xs[:len(v)]
	var a0, a1, a2, a3 float64
	k := 0
	for ; k+4 <= len(v); k += 4 {
		a0 += v[k] * xs[k]
		a1 += v[k+1] * xs[k+1]
		a2 += v[k+2] * xs[k+2]
		a3 += v[k+3] * xs[k+3]
	}
	sum := (a0 + a2) + (a1 + a3)
	for ; k < len(v); k++ {
		sum += v[k] * xs[k]
	}
	return sum
}

// dotContig8F64 mirrors dot8: eight accumulators, the
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction, sequential remainder,
// over the same bounds-check-free re-sliced operands as dotContig4F64.
func dotContig8F64(val, x []float64, lo, hi, cmk int) float64 {
	v := val[lo:hi]
	xs := x[cmk+lo : cmk+hi]
	xs = xs[:len(v)]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := 0
	for ; k+8 <= len(v); k += 8 {
		a0 += v[k] * xs[k]
		a1 += v[k+1] * xs[k+1]
		a2 += v[k+2] * xs[k+2]
		a3 += v[k+3] * xs[k+3]
		b0 += v[k+4] * xs[k+4]
		b1 += v[k+5] * xs[k+5]
		b2 += v[k+6] * xs[k+6]
		b3 += v[k+7] * xs[k+7]
	}
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < len(v); k++ {
		sum += v[k] * xs[k]
	}
	return sum
}

// dotDiaContigG is dotContigF64 with the value load abstracted through
// valLoad, serving single-run fragments of the palette value stream.
func dotDiaContigG[V ValSource](vals []V, pal []float64, x []float64, lo, hi, cmk, unrollLen int) float64 {
	length := hi - lo
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[cmk+k]
		}
		return sum
	}
	if length < unrollLen {
		return dotDiaContig4G(vals, pal, x, lo, hi, cmk)
	}
	return dotDiaContig8G(vals, pal, x, lo, hi, cmk)
}

// dotDiaContig4G mirrors dot4 with valLoad operands.
func dotDiaContig4G[V ValSource](vals []V, pal []float64, x []float64, lo, hi, cmk int) float64 {
	var a0, a1, a2, a3 float64
	k := lo
	for ; k+4 <= hi; k += 4 {
		c := cmk + k
		a0 += valLoad(vals, pal, k) * x[c]
		a1 += valLoad(vals, pal, k+1) * x[c+1]
		a2 += valLoad(vals, pal, k+2) * x[c+2]
		a3 += valLoad(vals, pal, k+3) * x[c+3]
	}
	sum := (a0 + a2) + (a1 + a3)
	for ; k < hi; k++ {
		sum += valLoad(vals, pal, k) * x[cmk+k]
	}
	return sum
}

// dotDiaContig8G mirrors dot8 with valLoad operands.
func dotDiaContig8G[V ValSource](vals []V, pal []float64, x []float64, lo, hi, cmk int) float64 {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := lo
	for ; k+8 <= hi; k += 8 {
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
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < hi; k++ {
		sum += valLoad(vals, pal, k) * x[cmk+k]
	}
	return sum
}

// dotBlockContigF64 is DotRangeBlock over a single contiguous run:
// sums[j] = dotContigF64(val, X[j], lo, hi, cmk, unrollLen), with the
// same tile structure and chain carry as dotBlock4/dotBlock8.
func dotBlockContigF64(val []float64, X [][]float64, sums []float64, lo, hi, cmk, unrollLen int) {
	w := len(sums)
	length := hi - lo
	if length < ScalarThreshold {
		for j := 0; j < w; j++ {
			x := X[j]
			sum := 0.0
			for k := lo; k < hi; k++ {
				sum += val[k] * x[cmk+k]
			}
			sums[j] = sum
		}
		return
	}
	if length < unrollLen {
		dotBlockContig4F64(val, X, sums, lo, hi, cmk, w)
		return
	}
	dotBlockContig8F64(val, X, sums, lo, hi, cmk, w)
}

// dotBlockContig4F64 mirrors dotBlock4 with contiguous columns.
func dotBlockContig4F64(val []float64, X [][]float64, sums []float64, lo, hi, cmk, w int) {
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
				a0 += val[k] * x[c]
				a1 += val[k+1] * x[c+1]
				a2 += val[k+2] * x[c+2]
				a3 += val[k+3] * x[c+3]
			}
			acc[j][0], acc[j][1], acc[j][2], acc[j][3] = a0, a1, a2, a3
		}
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := (a[0] + a[2]) + (a[1] + a[3])
		for k := k4; k < hi; k++ {
			sum += val[k] * x[cmk+k]
		}
		sums[j] = sum
	}
}

// dotBlockContig8F64 mirrors dotBlock8 with contiguous columns.
func dotBlockContig8F64(val []float64, X [][]float64, sums []float64, lo, hi, cmk, w int) {
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
				a0 += val[k] * x[c]
				a1 += val[k+1] * x[c+1]
				a2 += val[k+2] * x[c+2]
				a3 += val[k+3] * x[c+3]
				b0 += val[k+4] * x[c+4]
				b1 += val[k+5] * x[c+5]
				b2 += val[k+6] * x[c+6]
				b3 += val[k+7] * x[c+7]
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
			sum += val[k] * x[cmk+k]
		}
		sums[j] = sum
	}
}

// dotBlockDiaContigG is dotBlockContigF64 with valLoad operands, for
// single-run fragments of the palette stream under the
// batch kernel. The tile/chain structure is identical, so each sums[j]
// stays bit-identical to the single-vector contiguous kernel.
func dotBlockDiaContigG[V ValSource](vals []V, pal []float64, X [][]float64, sums []float64, lo, hi, cmk, unrollLen int) {
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
		dotBlockDiaContig4G(vals, pal, X, sums, lo, hi, cmk, w)
		return
	}
	dotBlockDiaContig8G(vals, pal, X, sums, lo, hi, cmk, w)
}

// dotBlockDiaContig4G mirrors dotBlock4 with valLoad operands.
func dotBlockDiaContig4G[V ValSource](vals []V, pal []float64, X [][]float64, sums []float64, lo, hi, cmk, w int) {
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

// dotBlockDiaContig8G mirrors dotBlock8 with valLoad operands.
func dotBlockDiaContig8G[V ValSource](vals []V, pal []float64, X [][]float64, sums []float64, lo, hi, cmk, w int) {
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
