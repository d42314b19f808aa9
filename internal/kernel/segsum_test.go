package kernel

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// segBody runs segs over d's u32 × float64 streams as one 8-vector
// SegSumBlock tile into Y.
type segBody struct {
	name string
	run  func(d *kernelData, col []uint32, Y [][]float64, segs []Segment, unrollLen int) int
}

// segBodies are the Go body and, on an AVX2 host, the assembly body.
func segBodies() []segBody {
	bodies := []segBody{{"go", func(d *kernelData, col []uint32, Y [][]float64, segs []Segment, un int) int {
		return segSumBlockGo(d.val, col, d.tile(MaxBlock), Y, make([]float64, MaxBlock), segs, un)
	}}}
	if hasAVX2 {
		bodies = append(bodies, segBody{"avx2", runAVX2})
	}
	return bodies
}

// runAVX2 runs segs through the AVX2 body of the 8-vector u32 × float64
// tile, which SegSumBlock selects on hosts that have it.
func runAVX2(d *kernelData, col []uint32, Y [][]float64, segs []Segment, un int) int {
	done, ok := segSumBlock8(d.val, col, d.tile(MaxBlock), Y, make([]float64, MaxBlock), segs, un)
	if !ok {
		panic("kernel: the AVX2 segsum body did not run")
	}
	return done
}

// sentinelY returns 8 outputs of n entries filled with a NaN no kernel
// produces.
func sentinelY(n int) [][]float64 {
	Y := make([][]float64, MaxBlock)
	for j := range Y {
		Y[j] = make([]float64, n)
		for i := range Y[j] {
			Y[j][i] = math.Float64frombits(0x7ff4_dead_beef_0000)
		}
	}
	return Y
}

// sameBits reports the first entry where two outputs differ in any bit.
func sameBits(a, b [][]float64) (j, i int, ok bool) {
	for j := range a {
		for i := range a[j] {
			if math.Float64bits(a[j][i]) != math.Float64bits(b[j][i]) {
				return j, i, false
			}
		}
	}
	return 0, 0, true
}

// specialData is newKernelData with about one value and one x entry in
// every density replaced by a special operand: NaNs that each carry a
// payload of their own (quiet and signalling, either sign), ±Inf, ±0,
// subnormals, and magnitudes whose products overflow to ±Inf, so sums
// meet NaN × NaN, NaN + NaN with two payloads, Inf - Inf and gradual
// underflow.
func specialData(seed uint64, density int) *kernelData {
	d := newKernelData(seed, 4096, 4095, 20)
	r := xorshift(seed * 0x9e3779b97f4a7c15)
	payload := uint64(0)
	special := func() float64 {
		payload++
		switch r.intn(10) {
		case 0:
			return math.Float64frombits(0x7ff8_0000_0000_0000 | payload) // quiet
		case 1:
			return math.Float64frombits(0xfff8_0000_0000_0000 | payload) // negative quiet
		case 2:
			return math.Float64frombits(0x7ff0_0000_0000_0000 | payload) // signalling
		case 3:
			return math.Inf(1)
		case 4:
			return math.Inf(-1)
		case 5:
			return math.Copysign(0, -1)
		case 6:
			return 0
		case 7:
			return math.Ldexp(float64(1+r.intn(1000)), 300) * float64(1-2*r.intn(2))
		default:
			return math.Float64frombits(1+r.next()%(1<<52)) * float64(1-2*r.intn(2)) // subnormal
		}
	}
	for k := range d.val {
		if r.intn(density) == 0 {
			d.val[k] = special()
		}
	}
	for _, x := range d.X {
		for c := range x {
			if r.intn(density) == 0 {
				x[c] = special()
			}
		}
	}
	return d
}

// x86NaN is what an SSE or AVX add or multiply of a and b returns when
// either is a NaN: the first NaN operand, quieted.
func x86NaN(a, b float64) (float64, bool) {
	switch {
	case a != a:
		return math.Float64frombits(math.Float64bits(a) | 1<<51), true
	case b != b:
		return math.Float64frombits(math.Float64bits(b) | 1<<51), true
	}
	return 0, false
}

func x86Add(a, b float64) float64 {
	if r, ok := x86NaN(a, b); ok {
		return r
	}
	return a + b
}

func x86Mul(a, b float64) float64 {
	if r, ok := x86NaN(a, b); ok {
		return r
	}
	return a * b
}

// x86Oracle is chainOracle with the operand order of every multiply and
// add spelled out, NaN payloads included: the order the AVX2 tile keeps,
// which is the one go1.24 gives DotBlock's MULSD and ADDSD (v·x and
// sum+prod on rows shorter than 4; x·v and prod+acc in the chains and
// the remainder; (a3+a1)+(a2+a0) in the reduction). Go code cannot pin
// that order itself: the compiler may swap the operands of any float
// add or multiply, and does so between DotBlock and dot4 and under
// -race.
func x86Oracle(val []float64, col []int, x []float64, lo, hi, unrollLen int) float64 {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	sum := 0.0
	if n < 4 {
		for k := lo; k < hi; k++ {
			sum = x86Add(sum, x86Mul(val[k], x[col[k]]))
		}
		return sum
	}
	w := 4
	if n >= unrollLen {
		w = 8
	}
	var a [8]float64
	whole := lo + n/w*w
	for k := lo; k < whole; k++ {
		a[(k-lo)%w] = x86Add(x86Mul(x[col[k]], val[k]), a[(k-lo)%w])
	}
	sum = x86Add(x86Add(a[3], a[1]), x86Add(a[2], a[0]))
	if w == 8 {
		sum = x86Add(sum, x86Add(x86Add(a[7], a[5]), x86Add(a[6], a[4])))
	}
	for k := whole; k < hi; k++ {
		sum = x86Add(x86Mul(x[col[k]], val[k]), sum)
	}
	return sum
}

// TestSegSumBlockSpecialValues runs the 8-vector u32 × float64 tile on
// special operands. The assembly body must give x86Oracle's bits, NaN
// payloads included, so a swapped operand anywhere shows. The Go body
// must give the same bits wherever the result is not a NaN, and a NaN
// where it is: its payloads are the compiler's choice (see x86Oracle).
func TestSegSumBlockSpecialValues(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 body on this host")
	}
	for _, density := range []int{3, 16, 64} {
		d := specialData(uint64(density), density)
		payloads := map[uint64]bool{}
		for _, un := range []int{4, 32, DefaultUnrollThreshold, 1 << 30} {
			var got [2][][]float64
			for b, body := range segBodies() {
				got[b] = sentinelY(len(d.segs))
				body.run(d, d.col32, got[b], d.segs, un)
			}
			for i, s := range d.segs {
				if s.K1 <= s.K0 {
					continue
				}
				for j := range got[0] {
					goBits, asm := math.Float64bits(got[0][j][i]), got[1][j][i]
					want := x86Oracle(d.val, d.col, d.X[j], int(s.K0), int(s.K1), un)
					if math.Float64bits(asm) != math.Float64bits(want) {
						t.Fatalf("density %d un %d seg %d [%d,%d) vec %d: avx2 %x, x86Oracle %x",
							density, un, i, s.K0, s.K1, j, math.Float64bits(asm), math.Float64bits(want))
					}
					if math.IsNaN(want) {
						payloads[math.Float64bits(want)] = true
					}
					if math.IsNaN(want) != math.IsNaN(got[0][j][i]) || !math.IsNaN(want) && goBits != math.Float64bits(want) {
						t.Fatalf("density %d un %d seg %d vec %d: go body %x, x86Oracle %x", density, un, i, j, goBits, math.Float64bits(want))
					}
				}
			}
		}
		// The payloads must survive: a body that returned only the
		// default NaN would pass a NaN-for-NaN comparison.
		if len(payloads) < 20 {
			t.Fatalf("density %d: only %d distinct NaN results", density, len(payloads))
		}
	}
}

// TestSegSumBlockBoundsChecks corrupts one descriptor or column of a
// restored-looking stream — a column past the tile, K0 < 0, K1 past
// the streams, a Dst past an output — and runs it through every body.
// Each must panic with a runtime bounds error as the Go body does. A
// corruption in the first non-empty segment must leave every Y
// untouched; one in a later touch block must leave the bodies' Y equal,
// since both store every segment before that block and none after.
func TestSegSumBlockBoundsChecks(t *testing.T) {
	d := newKernelData(7, 4096, 4095, 20)
	cols := len(d.X[0])
	first, later := -1, -1
	for i, s := range d.segs {
		if s.K1 > s.K0 {
			if first < 0 {
				first = i
			}
			if i >= 3*touchSegs+5 {
				later = i
				break
			}
		}
	}
	if first < 0 || first >= touchSegs || later < 0 {
		t.Fatalf("test data: first non-empty segment %d, later %d", first, later)
	}
	corruptions := []struct {
		name string
		f    func(col []uint32, segs []Segment, Y [][]float64, i int)
	}{
		{"column past the tile", func(col []uint32, segs []Segment, Y [][]float64, i int) {
			col[segs[i].K1-1] = uint32(cols)
		}},
		{"column 2^32-1", func(col []uint32, segs []Segment, Y [][]float64, i int) {
			col[segs[i].K0] = math.MaxUint32
		}},
		{"negative K0", func(col []uint32, segs []Segment, Y [][]float64, i int) {
			segs[i].K0 = -1
		}},
		{"K1 past the streams", func(col []uint32, segs []Segment, Y [][]float64, i int) {
			segs[i].K1 = int32(len(col) + 1)
		}},
		{"Dst past the outputs", func(col []uint32, segs []Segment, Y [][]float64, i int) {
			segs[i].Dst = int32(len(Y[0]))
		}},
		{"negative Dst", func(col []uint32, segs []Segment, Y [][]float64, i int) {
			segs[i].Dst = -1
		}},
		{"one short output", func(col []uint32, segs []Segment, Y [][]float64, i int) {
			Y[5] = Y[5][:segs[i].Dst]
		}},
	}
	for _, c := range corruptions {
		for _, at := range []int{first, later} {
			var results [][][]float64
			for _, body := range segBodies() {
				col := append([]uint32(nil), d.col32...)
				segs := append([]Segment(nil), d.segs...)
				Y := sentinelY(len(d.segs))
				full := Y[5]
				c.f(col, segs, Y, at)
				func() {
					defer func() {
						// A bounds error, not a fault the runtime turned
						// into a panic.
						err, ok := recover().(runtime.Error)
						if !ok || !strings.Contains(err.Error(), "out of range") {
							t.Fatalf("%s at segment %d, %s body: want a bounds panic, got %v", c.name, at, body.name, err)
						}
					}()
					body.run(d, col, Y, segs, DefaultUnrollThreshold)
				}()
				Y[5] = full
				results = append(results, Y)
			}
			if at == first && c.name != "one short output" {
				if j, i, ok := sameBits(results[0], sentinelY(len(d.segs))); !ok {
					t.Fatalf("%s at segment %d: the go body stored Y[%d][%d]", c.name, at, j, i)
				}
			}
			for b := 1; b < len(results); b++ {
				if j, i, ok := sameBits(results[0], results[b]); !ok {
					t.Fatalf("%s at segment %d: the bodies left different Y[%d][%d]", c.name, at, j, i)
				}
			}
		}
	}
}
