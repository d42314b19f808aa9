package kernel

// Batch gather kernels over a column-interleaved x tile. A gather
// kernel's cost is dominated by the x line it fetches for each nonzero
// (the column is random; the value and index streams are sequential and
// prefetched), so a batch that gathers each vector separately fetches w
// random lines per nonzero from w separate arrays. The block kernels
// instead read one interleaved tile,
//
//	xi[c*w+j] = X[j][c]   (w = len(sums) vectors),
//
// where the w entries of column c share one cache line (w ≤ MaxBlock = 8
// float64s is 64 bytes): each nonzero loads its value and column once
// and one gathered line feeds every vector of the tile. The executor
// packs the tile once per call (internal/core), so the pack is a
// sequential w·cols pass against w random lines per nonzero saved.
//
// The kernels are *bit-exact*: vector j keeps its own accumulator
// chains, assigned, reduced and finished by the sequential remainder
// exactly as Dot's scalar/4-wide/8-wide dispatch, so
//
//	DotBlock(vals, col, xi, sums, lo, hi, un)
//
// stores exactly Dot(vals, col, X[j], lo, hi, un) into sums[j],
// bit-for-bit. The serving layer's dynamic batcher depends on this: a request must produce the same float64 bits whether it was
// computed alone or coalesced with up to MaxBlock-1 neighbours.

// MaxBlock is the widest vector block the batch kernel processes in one
// call; ComputeBatch tiles larger batches into MaxBlock-wide pieces.
const MaxBlock = 8

// MinBlock is the narrowest tile the executor runs through the block
// kernels: the pack rewrites x on every call, which below 4 vectors
// costs more than the shared lines save, so it runs those one by one.
const MinBlock = 4

// DotBlock computes sums[j] = Dot(vals, col, X[j], lo, hi, unrollLen)
// for j in [0, len(sums)), reading X through the interleaved tile xi
// (xi[c*w+j] = X[j][c], w = len(sums)). len(sums) must be between 1 and
// MaxBlock; the executor calls it from MinBlock on.
func DotBlock[C ColIndex](vals []float64, col []C, xi, sums []float64, lo, hi, unrollLen int) {
	w := len(sums)
	n := hi - lo
	if n < ScalarThreshold {
		// Dot's scalar loop once per vector, its sum in a register: the
		// first vector gathers the row's lines, the others hit L1.
		for j := range sums {
			sum := 0.0
			for k := lo; k < hi; k++ {
				sum += vals[k] * xi[int(col[k])*w+j]
			}
			sums[j] = sum
		}
		return
	}
	k := lo
	// dot4's 4 chains below unrollLen, dot8's 8 from it on: nonzero k
	// joins chain (k-lo)%chains of every vector.
	chains := 4
	if n >= unrollLen {
		chains = 8
	}
	var acc [8][MaxBlock]float64
	for kEnd := lo + n&^(chains-1); k < kEnd; k++ {
		v := vals[k]
		x := xi[int(col[k])*w:][:w]
		a := acc[(k-lo)&(chains-1)][:w]
		for j, xv := range x {
			a[j] += v * xv
		}
	}
	// dot4's (a0+a2)+(a1+a3), or dot8's
	// ((a0+a2)+(a1+a3))+((a4+a6)+(a5+a7)), per vector.
	for j := range sums {
		sum := (acc[0][j] + acc[2][j]) + (acc[1][j] + acc[3][j])
		if chains == 8 {
			sum += (acc[4][j] + acc[6][j]) + (acc[5][j] + acc[7][j])
		}
		sums[j] = sum
	}
	// The sequential remainder after the reduction.
	for ; k < hi; k++ {
		v := vals[k]
		x := xi[int(col[k])*w:][:w]
		for j, xv := range x {
			sums[j] += v * xv
		}
	}
}
