package kernel

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// segBody runs segs over d's u32 × float64 streams into Y, as one
// SegSum call when w is 1 and as one SegSumBlock tile of w vectors
// otherwise.
type segBody struct {
	name string
	w    int
	run  func(d *kernelData, col []uint32, Y [][]float64, segs []Segment, unrollLen int) int
}

// asmWidths are the widths that have an assembly body.
var asmWidths = []int{1, 4, MaxBlock}

// segBodies are, for each width in asmWidths, the Go body and, on an
// AVX2 host, the assembly body.
func segBodies() []segBody {
	var bodies []segBody
	for _, w := range asmWidths {
		bodies = append(bodies, segBody{fmt.Sprintf("go/w%d", w), w, goBody(w)})
		if hasAVX2 {
			bodies = append(bodies, segBody{fmt.Sprintf("avx2/w%d", w), w, asmBody(w)})
		}
	}
	return bodies
}

// goBody runs segs through the Go body of width w.
func goBody(w int) func(d *kernelData, col []uint32, Y [][]float64, segs []Segment, un int) int {
	return func(d *kernelData, col []uint32, Y [][]float64, segs []Segment, un int) int {
		if w == 1 {
			return segSumGo(d.val, col, d.X[0], Y[0], segs, un)
		}
		return segSumBlockGo(d.val, col, d.tile(w), Y, make([]float64, w), segs, un)
	}
}

// asmBody runs segs through the AVX2 body of width w, which SegSum
// (w = 1) or SegSumBlock selects on hosts that have it.
func asmBody(w int) func(d *kernelData, col []uint32, Y [][]float64, segs []Segment, un int) int {
	return func(d *kernelData, col []uint32, Y [][]float64, segs []Segment, un int) int {
		var done int
		var ok bool
		if w == 1 {
			done, ok = segSumAsm(d.val, col, d.X[0], Y[0], segs, un)
		} else {
			done, ok = segSumBlockAsm(d.val, col, d.tile(w), Y, make([]float64, w), segs, un)
		}
		if !ok {
			panic(fmt.Sprintf("kernel: the AVX2 segsum body of width %d did not run", w))
		}
		return done
	}
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

// TestSegSumBlockSpecialValues runs the u32 × float64 segmented sums
// that have an assembly body (one vector, tiles of 4 and 8) on special
// operands. The assembly body must give x86Oracle's bits, NaN payloads
// included, so a swapped operand anywhere shows. The Go body must give
// the same bits wherever the result is not a NaN, and a NaN where it
// is: its payloads are the compiler's choice (see x86Oracle).
func TestSegSumBlockSpecialValues(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 body on this host")
	}
	bodies := segBodies()
	for b := 0; b < len(bodies); b += 2 {
		goBody, asmBody := bodies[b], bodies[b+1]
		for _, density := range []int{3, 16, 64} {
			d := specialData(uint64(density), density)
			payloads := map[uint64]bool{}
			for _, un := range []int{4, 32, DefaultUnrollThreshold, 1 << 30} {
				goY, asmY := sentinelY(len(d.segs)), sentinelY(len(d.segs))
				goBody.run(d, d.col32, goY, d.segs, un)
				asmBody.run(d, d.col32, asmY, d.segs, un)
				for i, s := range d.segs {
					if s.K1 <= s.K0 {
						continue
					}
					for j := range goBody.w {
						goBits, asm := math.Float64bits(goY[j][i]), asmY[j][i]
						want := x86Oracle(d.val, d.col, d.X[j], int(s.K0), int(s.K1), un)
						if math.Float64bits(asm) != math.Float64bits(want) {
							t.Fatalf("%s density %d un %d seg %d [%d,%d) vec %d: %x, x86Oracle %x",
								asmBody.name, density, un, i, s.K0, s.K1, j, math.Float64bits(asm), math.Float64bits(want))
						}
						if math.IsNaN(want) {
							payloads[math.Float64bits(want)] = true
						}
						if math.IsNaN(want) != math.IsNaN(goY[j][i]) || !math.IsNaN(want) && goBits != math.Float64bits(want) {
							t.Fatalf("%s density %d un %d seg %d vec %d: %x, x86Oracle %x", goBody.name, density, un, i, j, goBits, math.Float64bits(want))
						}
					}
				}
			}
			// The payloads must survive: a body that returned only the
			// default NaN would pass a NaN-for-NaN comparison. One
			// vector has an eighth of a full tile's results.
			want := 20
			if goBody.w == 1 {
				want = 10
			}
			if len(payloads) < want {
				t.Fatalf("%s density %d: only %d distinct NaN results", asmBody.name, density, len(payloads))
			}
		}
	}
}

// TestSegSumBlockBoundsChecks corrupts one descriptor or column of a
// restored-looking stream — a column past the tile, K0 < 0, K1 past
// the streams, a Dst past an output — and runs it through every body
// of every width in asmWidths. Each must panic with a runtime bounds
// error as the Go body does. A corruption in the first non-empty
// segment must leave every Y untouched; one in a later touch block must
// leave the two bodies of a width with equal Y, since both store every
// segment before the failing one (a tile: before its touch block) and
// none after.
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
		{"one short output", nil},
	}
	for _, c := range corruptions {
		for _, at := range []int{first, later} {
			goY := map[int][][]float64{} // the Go body's Y per width
			for _, body := range segBodies() {
				col := append([]uint32(nil), d.col32...)
				segs := append([]Segment(nil), d.segs...)
				Y := sentinelY(len(d.segs))
				last := body.w - 1
				full := Y[last]
				if c.f != nil {
					c.f(col, segs, Y, at)
				} else {
					Y[last] = Y[last][:segs[at].Dst]
				}
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
				Y[last] = full
				ref, ok := goY[body.w]
				if !ok {
					goY[body.w] = Y
					if at == first && c.f != nil {
						if j, i, ok := sameBits(Y, sentinelY(len(d.segs))); !ok {
							t.Fatalf("%s at segment %d: the %s body stored Y[%d][%d]", c.name, at, body.name, j, i)
						}
					}
					continue
				}
				if j, i, ok := sameBits(ref, Y); !ok {
					t.Fatalf("%s at segment %d: the %s body left Y[%d][%d] unlike the Go body", c.name, at, body.name, j, i)
				}
			}
		}
	}
}
