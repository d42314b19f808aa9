package kernel

// Register-blocked batch kernels: the value/index streams are walked in
// L1-resident tiles, each tile feeding every x vector of the block before
// the next tile is touched. Batch SpMV is bound by the same streams as
// the single-vector kernel (Algorithm 6), so re-reading each tile from L1
// for the other vectors of the block divides the stream's DRAM traffic by
// the block width — the lever block Krylov solvers and multi-query
// workloads rely on — while the inner loops keep their partial sums in
// the same register accumulator chains as Dot.
//
// That makes the block kernels *bit-exact*: for every vector j the chains
// are assigned, carried across tiles, reduced and finished by the
// sequential remainder exactly as Dot's scalar/4-wide/8-wide dispatch, so
//
//	DotBlock(vals, pal, col, base, X, sums, lo, hi, un)
//
// stores exactly Dot(vals, pal, col, base, X[j], lo, hi, un) into
// sums[j], bit-for-bit. The serving layer's dynamic batcher depends on
// this: a request must produce the same float64 bits whether it was
// computed alone or coalesced with up to MaxBlock-1 neighbours.

// MaxBlock is the widest vector block the batch kernel processes in one
// call; ComputeBatch tiles larger batches into MaxBlock-wide pieces.
const MaxBlock = 8

// blockTile is the index-stream tile the block kernel revisits once per
// vector: 1024 nonzeros = 16KB of values + indices, comfortably inside a
// 32KB L1D alongside the gathered x lines. It is a multiple of 8 so tile
// boundaries never disturb the accumulator-chain assignment.
const blockTile = 1024

// DotBlock computes sums[j] = Dot(vals, pal, col, base, X[j], lo, hi,
// unrollLen) for j in [0, len(sums)), reading the streams from cache for
// all but the first vector of the block. len(X) must be at least
// len(sums), and len(sums) must be between 1 and MaxBlock.
func DotBlock[V ValSource, C ColIndex](vals []V, pal *[256]float64, col []C, base int, X [][]float64, sums []float64, lo, hi, unrollLen int) {
	w := len(sums)
	length := hi - lo
	if length <= 0 {
		for j := 0; j < w; j++ {
			sums[j] = 0
		}
		return
	}
	if length < ScalarThreshold {
		// Scalar path: a single sequential chain per vector, exactly
		// Dot's short-row loop.
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
		dotBlock4(vals, pal, col, base, X, sums, lo, hi, w)
		return
	}
	dotBlock8(vals, pal, col, base, X, sums, lo, hi, w)
}

// dotBlock4 mirrors dot4: four accumulator chains per vector (chain i
// takes the nonzeros at positions lo+i, lo+i+4, ...), the (a0+a2)+(a1+a3)
// reduction, then the sequential remainder. Chain values are carried
// across tiles in acc, which preserves each chain's strictly sequential
// accumulation order.
func dotBlock4[V ValSource, C ColIndex](vals []V, pal *[256]float64, col []C, base int, X [][]float64, sums []float64, lo, hi, w int) {
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

// dotBlock8 mirrors dot8: eight accumulator chains per vector, the
// ((a0+a2)+(a1+a3))+((b0+b2)+(b1+b3)) reduction, then the sequential
// remainder, with chain values carried across tiles as in dotBlock4.
func dotBlock8[V ValSource, C ColIndex](vals []V, pal *[256]float64, col []C, base int, X [][]float64, sums []float64, lo, hi, w int) {
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
