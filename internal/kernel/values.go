package kernel

// Compressed-value kernels: the Algorithm 6 dot products with the value
// operand loaded from a palette stream instead of []float64. The value
// stream is 8 of the 12-16 bytes moved per nonzero; a matrix with at
// most 256 distinct values (0/1 adjacency, edge-weight graphs) streams
// 1-byte palette indices and reads the float64 through a table that
// fits in L1.
//
// The palette load pal[idx[k]] *is* the float64 the matrix stores, so
// every palette variant is bit-exact with its []float64 counterpart:
// the generic bodies below reproduce DotRange/DotRangeBlock's dispatch,
// chain assignment, reduction trees, and remainders statement for
// statement, exactly like compressed.go does for the index streams.

// ValSource is the set of value-stream element types the generic
// bodies read: the []float64 reference and the uint8 palette indices
// (resolved through a non-nil pal table).
type ValSource interface {
	~float64 | ~uint8
}

// valLoad resolves one value operand: the element itself for direct
// streams (pal nil), the palette entry for index streams. The branch is
// loop-invariant and predicted; each V is a distinct gcshape so no
// variant pays a boxing cost.
func valLoad[V ValSource](vals []V, pal []float64, k int) float64 {
	if pal == nil {
		return float64(vals[k])
	}
	return pal[uint8(vals[k])]
}

// DotRangePalette computes sum(pal[idx[k]]*x[base+int(col[k])]) for k
// in [lo, hi), bit-identical to DotRange on the same columns and the
// palette-resolved values.
func DotRangePalette[C ColIndex](idx []uint8, pal []float64, col []C, base int, x []float64, lo, hi, unrollLen int) float64 {
	return dotRangeVC(idx, pal, col, base, x, lo, hi, unrollLen)
}

// dotRangeVC is dotRangeC with the value load abstracted through
// valLoad; dispatch and chain structure copied from kernel.go.
func dotRangeVC[V ValSource, C ColIndex](vals []V, pal []float64, col []C, base int, x []float64, lo, hi, unrollLen int) float64 {
	length := hi - lo
	if length <= 0 {
		return 0
	}
	if length < ScalarThreshold {
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[base+int(col[k])]
		}
		return sum
	}
	if length < unrollLen {
		return dot4VC(vals, pal, col, base, x, lo, hi)
	}
	return dot8VC(vals, pal, col, base, x, lo, hi)
}

// dot4VC mirrors dot4: four accumulators, (a0+a2)+(a1+a3) reduction,
// sequential remainder.
func dot4VC[V ValSource, C ColIndex](vals []V, pal []float64, col []C, base int, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3 float64
	k := lo
	for ; k+4 <= hi; k += 4 {
		a0 += valLoad(vals, pal, k) * x[base+int(col[k])]
		a1 += valLoad(vals, pal, k+1) * x[base+int(col[k+1])]
		a2 += valLoad(vals, pal, k+2) * x[base+int(col[k+2])]
		a3 += valLoad(vals, pal, k+3) * x[base+int(col[k+3])]
	}
	sum := (a0 + a2) + (a1 + a3)
	for ; k < hi; k++ {
		sum += valLoad(vals, pal, k) * x[base+int(col[k])]
	}
	return sum
}

// dot8VC mirrors dot8: eight accumulators, the
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction, sequential remainder.
func dot8VC[V ValSource, C ColIndex](vals []V, pal []float64, col []C, base int, x []float64, lo, hi int) float64 {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := lo
	for ; k+8 <= hi; k += 8 {
		a0 += valLoad(vals, pal, k) * x[base+int(col[k])]
		a1 += valLoad(vals, pal, k+1) * x[base+int(col[k+1])]
		a2 += valLoad(vals, pal, k+2) * x[base+int(col[k+2])]
		a3 += valLoad(vals, pal, k+3) * x[base+int(col[k+3])]
		b0 += valLoad(vals, pal, k+4) * x[base+int(col[k+4])]
		b1 += valLoad(vals, pal, k+5) * x[base+int(col[k+5])]
		b2 += valLoad(vals, pal, k+6) * x[base+int(col[k+6])]
		b3 += valLoad(vals, pal, k+7) * x[base+int(col[k+7])]
	}
	sum := ((a0 + a2) + (a1 + a3)) + ((b0 + b2) + (b1 + b3))
	for ; k < hi; k++ {
		sum += valLoad(vals, pal, k) * x[base+int(col[k])]
	}
	return sum
}

// DotRangeBlockPalette is DotRangeBlock over the palette value stream:
// sums[j] = DotRangePalette(idx, pal, col, base, X[j], lo, hi,
// unrollLen), bit-identical per vector.
func DotRangeBlockPalette[C ColIndex](idx []uint8, pal []float64, col []C, base int, X [][]float64, sums []float64, lo, hi, unrollLen int) {
	dotRangeBlockVC(idx, pal, col, base, X, sums, lo, hi, unrollLen)
}

// dotRangeBlockVC is dotRangeBlockC with the value load abstracted;
// same tile structure, chain carry, and remainders as block.go.
func dotRangeBlockVC[V ValSource, C ColIndex](vals []V, pal []float64, col []C, base int, X [][]float64, sums []float64, lo, hi, unrollLen int) {
	w := len(sums)
	length := hi - lo
	if length <= 0 {
		for j := 0; j < w; j++ {
			sums[j] = 0
		}
		return
	}
	if length < ScalarThreshold {
		for j := 0; j < w; j++ {
			x := X[j]
			sum := 0.0
			for k := lo; k < hi; k++ {
				sum += valLoad(vals, pal, k) * x[base+int(col[k])]
			}
			sums[j] = sum
		}
		return
	}
	if length < unrollLen {
		dotBlock4VC(vals, pal, col, base, X, sums, lo, hi, w)
		return
	}
	dotBlock8VC(vals, pal, col, base, X, sums, lo, hi, w)
}

// dotBlock4VC mirrors dotBlock4 with abstracted value loads.
func dotBlock4VC[V ValSource, C ColIndex](vals []V, pal []float64, col []C, base int, X [][]float64, sums []float64, lo, hi, w int) {
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
				a0 += valLoad(vals, pal, k) * x[base+int(col[k])]
				a1 += valLoad(vals, pal, k+1) * x[base+int(col[k+1])]
				a2 += valLoad(vals, pal, k+2) * x[base+int(col[k+2])]
				a3 += valLoad(vals, pal, k+3) * x[base+int(col[k+3])]
			}
			acc[j][0], acc[j][1], acc[j][2], acc[j][3] = a0, a1, a2, a3
		}
	}
	for j := 0; j < w; j++ {
		a := &acc[j]
		x := X[j]
		sum := (a[0] + a[2]) + (a[1] + a[3])
		for k := k4; k < hi; k++ {
			sum += valLoad(vals, pal, k) * x[base+int(col[k])]
		}
		sums[j] = sum
	}
}

// dotBlock8VC mirrors dotBlock8 with abstracted value loads.
func dotBlock8VC[V ValSource, C ColIndex](vals []V, pal []float64, col []C, base int, X [][]float64, sums []float64, lo, hi, w int) {
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
				a0 += valLoad(vals, pal, k) * x[base+int(col[k])]
				a1 += valLoad(vals, pal, k+1) * x[base+int(col[k+1])]
				a2 += valLoad(vals, pal, k+2) * x[base+int(col[k+2])]
				a3 += valLoad(vals, pal, k+3) * x[base+int(col[k+3])]
				b0 += valLoad(vals, pal, k+4) * x[base+int(col[k+4])]
				b1 += valLoad(vals, pal, k+5) * x[base+int(col[k+5])]
				b2 += valLoad(vals, pal, k+6) * x[base+int(col[k+6])]
				b3 += valLoad(vals, pal, k+7) * x[base+int(col[k+7])]
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
			sum += valLoad(vals, pal, k) * x[base+int(col[k])]
		}
		sums[j] = sum
	}
}
