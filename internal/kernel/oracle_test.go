package kernel

import (
	"fmt"
	"math"
	"testing"
)

// The differential tests below run every kernel instantiation — index
// stream {int, u32, dia offset} × {single, block} × {fragment, segsum} — against chainOracle, an
// independent statement of Algorithm 6's accumulation order that shares
// no code with the kernels, and demand equal float64 bits. Each test
// takes one family of instantiations (see family). The kernels
// themselves share one body per shape, so comparing one instantiation
// with another would only compare the code with itself.

// chainOracle is Algorithm 6's accumulation order in its plainest form:
// a row shorter than 4 is one sequential chain; otherwise w = 4 chains
// (8 from unrollLen on), nonzero k joining chain (k-lo)%w, for the whole
// groups of w; then the fixed reduction tree (a0+a2)+(a1+a3), plus
// (a4+a6)+(a5+a7) for w = 8; then the remainder added in order.
func chainOracle(val []float64, col []int, x []float64, lo, hi, unrollLen int) float64 {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	sum := 0.0
	if n < 4 {
		for k := lo; k < hi; k++ {
			sum += val[k] * x[col[k]]
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
		a[(k-lo)%w] += val[k] * x[col[k]]
	}
	sum = (a[0] + a[2]) + (a[1] + a[3])
	if w == 8 {
		sum += (a[4] + a[6]) + (a[5] + a[7])
	}
	for k := whole; k < hi; k++ {
		sum += val[k] * x[col[k]]
	}
	return sum
}

// xorshift is the test inputs' generator (Marsaglia's xorshift64).
type xorshift uint64

func (s *xorshift) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return x
}

func (s *xorshift) intn(n int) int { return int(s.next() % uint64(n)) }

// float returns a value in [-1, 1) scaled by 2^e for e in [-8, 8), so
// sums mix magnitudes and every reassociation would show in the bits.
func (s *xorshift) float() float64 {
	f := float64(s.next()>>11)/(1<<52) - 1
	return math.Ldexp(f, s.intn(16)-8)
}

// kernelData is one set of streams over the same nonzeros: every index
// stream decodes to col.
type kernelData struct {
	val   []float64
	col   []int // decoded columns, all in [base, base+span]
	col32 []uint32
	runs  []diaRun // the runs of consecutive columns in col
	segs  []Segment
	X     [][]float64
	xi    [MaxBlock + 1][]float64 // xi[w] is packTile(X[:w]), built on first use
}

// diaRun is one run of consecutive columns, nonzeros [lo, hi): the
// one-run rows the dia kernels read.
type diaRun struct{ lo, hi int }

// runWindow returns the start of the fragment of l nonzeros that begins
// skip nonzeros into the first run long enough to hold it, and false
// when no run is.
func (d *kernelData) runWindow(skip, l int) (int, bool) {
	for _, r := range d.runs {
		if r.hi-r.lo >= skip+l {
			return r.lo + skip, true
		}
	}
	return 0, false
}

// packTile is the interleaved tile the block kernels read:
// xi[c*w+j] = X[j][c] for the w = len(X) vectors.
func packTile(X [][]float64) []float64 {
	w := len(X)
	xi := make([]float64, w*len(X[0]))
	for j, x := range X {
		for c, v := range x {
			xi[c*w+j] = v
		}
	}
	return xi
}

// tile returns the interleaved tile of the first w vectors of d.X.
func (d *kernelData) tile(w int) []float64 {
	if d.xi[w] == nil {
		d.xi[w] = packTile(d.X[:w])
	}
	return d.xi[w]
}

// newKernelData builds n nonzeros whose columns form runs of 1..maxRun
// consecutive columns inside [base, base+span], or one run of all n when
// maxRun >= n. The first column is base
// and the last is base+span, so with span 65535 the stream crosses the
// 2^16 column boundary. Segments cut [0, n) into power-law-ish rows (empty,
// short, medium and long, with gaps between some of them), as the
// segmented kernels see them.
func newKernelData(seed uint64, n, span, maxRun int) *kernelData {
	r := xorshift(seed)
	const base = 7
	d := &kernelData{}
	for k := 0; k < n; {
		l := 1 + r.intn(maxRun)
		if k+l > n || maxRun >= n {
			l = n - k
		}
		c0 := base + r.intn(span-l+2)
		switch {
		case k == 0:
			c0 = base
		case k+l == n:
			c0 = base + span - l + 1
		}
		for j := 0; j < l; j++ {
			d.col = append(d.col, c0+j)
		}
		d.runs = append(d.runs, diaRun{k, k + l})
		k += l
	}
	for _, c := range d.col {
		d.val = append(d.val, r.float())
		d.col32 = append(d.col32, uint32(c))
	}
	for k := 0; k < n; {
		var l int
		switch v := r.intn(32); {
		case v < 8:
			l = 0
		case v < 20:
			l = 1 + r.intn(3)
		case v < 31:
			l = 4 + r.intn(70)
		default:
			l = r.intn(1500)
		}
		l = min(l, n-k)
		d.segs = append(d.segs, Segment{K0: int32(k), K1: int32(k + l), Dst: int32(len(d.segs))})
		k += l
		if r.intn(3) == 0 {
			k += r.intn(5) // a gap: consecutive rows need not be contiguous
		}
	}
	d.X = make([][]float64, MaxBlock)
	for j := range d.X {
		d.X[j] = make([]float64, base+span+1)
		for i := range d.X[j] {
			d.X[j][i] = r.float()
		}
	}
	return d
}

// fragFunc runs one fragment [lo, hi) through a kernel: Dot or DotDia
// into out[0] for a single entry, DotBlock (on the interleaved tile of
// the first len(out) vectors) or DotDiaBlock (on X) into out for a block
// entry. A dia fragment must lie inside one run.
type fragFunc func(d *kernelData, block bool, out []float64, lo, hi, unrollLen int)

// segFunc runs every segment of d through SegSum (a single entry, into
// Y[0]) or SegSumBlock (a block entry, on the interleaved tile of the
// first len(sums) vectors).
type segFunc func(d *kernelData, block bool, Y [][]float64, sums []float64, unrollLen int) int

// Stream accessors: one index stream of the test data.
func intCols(d *kernelData) []int    { return d.col }
func u32Cols(d *kernelData) []uint32 { return d.col32 }

func gatherFrag[C ColIndex](cs func(*kernelData) []C) fragFunc {
	return func(d *kernelData, block bool, out []float64, lo, hi, un int) {
		col := cs(d)
		if block {
			DotBlock(d.val, col, d.tile(len(out)), out, lo, hi, un)
		} else {
			out[0] = Dot(d.val, col, d.X[0], lo, hi, un)
		}
	}
}

func diaFrag(d *kernelData, block bool, out []float64, lo, hi, un int) {
	off := 0
	if lo < hi {
		off = d.col[lo] - lo
	}
	if block {
		DotDiaBlock(d.val, off, d.X, out, lo, hi, un)
	} else {
		out[0] = DotDia(d.val, off, d.X[0], lo, hi, un)
	}
}

func segRows[C ColIndex](cs func(*kernelData) []C) segFunc {
	return func(d *kernelData, block bool, Y [][]float64, sums []float64, un int) int {
		col := cs(d)
		if block {
			return segSumBlockGo(d.val, col, d.tile(len(sums)), Y, sums, d.segs, un)
		}
		return SegSum(d.val, col, d.X[0], Y[0], d.segs, un)
	}
}

// avx2Rows runs every segment of d through the AVX2 body (runAVX2).
func avx2Rows(d *kernelData, _ bool, Y [][]float64, _ []float64, un int) int {
	return runAVX2(d, d.col32, Y, d.segs, un)
}

// kernelEntry is one row of the kernel table.
type kernelEntry struct {
	name  string
	idx   string // int, u32, dia
	block bool
	w     int // vectors per call
	frag  fragFunc
	seg   segFunc
}

// kernelTable enumerates every kernel instantiation: each index stream
// as a single-vector call and as a block of 1..MaxBlock
// vectors over fragments, and (except dia, which segmented regions
// never use) as a single-vector call and a block of 2..MaxBlock vectors
// over segments, the block ones through the Go body. On an AVX2 host a
// last entry runs the assembly body of the 8-vector u32 segments.
func kernelTable() []kernelEntry {
	streams := []struct {
		idx  string
		frag fragFunc
		seg  segFunc
	}{
		{"int", gatherFrag(intCols), segRows(intCols)},
		{"u32", gatherFrag(u32Cols), segRows(u32Cols)},
		{"dia", diaFrag, nil},
	}
	shapes := []struct {
		name  string
		block bool
		w     int
	}{{"single", false, 1}}
	for w := 1; w <= MaxBlock; w++ {
		shapes = append(shapes, struct {
			name  string
			block bool
			w     int
		}{fmt.Sprintf("block%d", w), true, w})
	}
	var tab []kernelEntry
	for _, p := range streams {
		for _, s := range shapes {
			e := kernelEntry{idx: p.idx, block: s.block, w: s.w}
			e.name = fmt.Sprintf("%s/%s/fragment", p.idx, s.name)
			e.frag = p.frag
			tab = append(tab, e)
			// A width-1 segmented tile takes SegSum (the single entry),
			// never SegSumBlock.
			if p.seg != nil && (!s.block || s.w > 1) {
				e.name = fmt.Sprintf("%s/%s/segsum", p.idx, s.name)
				e.frag, e.seg = nil, p.seg
				tab = append(tab, e)
			}
		}
	}
	if hasAVX2 {
		tab = append(tab, kernelEntry{name: "u32/block8/segsum-avx2", idx: "u32", block: true, w: MaxBlock, seg: avx2Rows})
	}
	return tab
}

// oracleData are the differential test's inputs: random gathers, short
// runs across a 2^16-column span, medium and long runs, runs longer than
// a block tile, and one run over every nonzero, which holds a dia
// fragment of every tested length.
func oracleData() []*kernelData {
	return []*kernelData{
		newKernelData(1, 4096, 511, 1),
		newKernelData(2, 4096, math.MaxUint16, 3),
		newKernelData(3, 4096, 4095, 20),
		newKernelData(4, 4096, 8191, 500),
		newKernelData(5, 4096, 8191, 1500),
		newKernelData(6, 4096, 8191, 4096),
	}
}

// family names the test that checks kernel table entry e against the
// oracle. Every entry has exactly one family, and each family below is
// one test, so the tests together cover the whole table.
func family(e kernelEntry) string {
	suffix := "BitIdentical"
	if e.block {
		suffix = "BlockBitIdentical"
	}
	switch {
	case e.seg != nil:
		return "TestSegSum" + suffix
	case e.idx == "dia":
		return "TestDiag" + suffix
	case e.idx == "u32":
		return "TestCompressed" + suffix
	case e.block:
		return "TestBlockKernelBitIdenticalToDotRange"
	}
	return "TestKernelsMatchChainOracle"
}

// TestKernelsMatchChainOracle checks the []int single-vector
// gather (DotRange's instantiation) against chainOracle.
func TestKernelsMatchChainOracle(t *testing.T) { checkFamily(t) }

// TestBlockKernelBitIdenticalToDotRange checks the []int block
// gather against chainOracle, and so against DotRange's bits, at every
// block width.
func TestBlockKernelBitIdenticalToDotRange(t *testing.T) { checkFamily(t) }

// TestCompressedBitIdentical and TestCompressedBlockBitIdentical check
// the u32 gathers.
func TestCompressedBitIdentical(t *testing.T)      { checkFamily(t) }
func TestCompressedBlockBitIdentical(t *testing.T) { checkFamily(t) }

// TestDiagBitIdentical and TestDiagBlockBitIdentical check the diagonal
// kernels, on fragments that start at a run's first
// nonzero and inside it.
func TestDiagBitIdentical(t *testing.T)      { checkFamily(t) }
func TestDiagBlockBitIdentical(t *testing.T) { checkFamily(t) }

// TestSegSumBitIdentical and TestSegSumBlockBitIdentical check the
// segmented kernels on every column stream.
func TestSegSumBitIdentical(t *testing.T)      { checkFamily(t) }
func TestSegSumBlockBitIdentical(t *testing.T) { checkFamily(t) }

// checkFamily checks the kernel table entries of the calling test's
// family bit for bit against chainOracle, over lengths 0-3, 4,
// unrollLen-1..unrollLen+1 and past one block tile, and every block
// width. Gather fragments start at 0, 5 or 13 and may span several runs;
// a dia fragment of the same length starts that far into the first run
// that holds it, and every length must find one.
func checkFamily(t *testing.T) {
	t.Helper()
	var tab []kernelEntry
	hasDia := false
	for _, e := range kernelTable() {
		if family(e) == t.Name() {
			tab = append(tab, e)
			hasDia = hasDia || e.idx == "dia"
		}
	}
	if len(tab) == 0 {
		t.Fatalf("no kernel table entries in family %s", t.Name())
	}
	data := oracleData()
	unrolls := []int{4, 32, DefaultUnrollThreshold, 1 << 30}
	// diaFound records each (unrollLen, skip, length) that found a run.
	diaFound := map[[3]int]bool{}
	for di, d := range data {
		for _, un := range unrolls {
			lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127, 128, 1000, 1023, 1024, 1025, 2000, 3000}
			if un < 1<<30 {
				lengths = append(lengths, un-1, un, un+1)
			}
			// Fragments.
			wants := func(lo, hi int) (want [MaxBlock]float64) {
				for j := range want {
					want[j] = chainOracle(d.val, d.col, d.X[j], lo, hi, un)
				}
				return want
			}
			for _, skip := range []int{0, 5, 13} {
				for _, l := range lengths {
					gatherWant := wants(skip, skip+l)
					diaLo, diaOK := d.runWindow(skip, l)
					var diaWant [MaxBlock]float64
					if diaOK {
						diaWant = wants(diaLo, diaLo+l)
					}
					key := [3]int{un, skip, l}
					diaFound[key] = diaFound[key] || diaOK
					for _, e := range tab {
						if e.frag == nil {
							continue
						}
						lo, want := skip, gatherWant
						if e.idx == "dia" {
							if !diaOK {
								continue
							}
							lo, want = diaLo, diaWant
						}
						hi := lo + l
						out := make([]float64, e.w)
						e.frag(d, e.block, out, lo, hi, un)
						for j, got := range out {
							if math.Float64bits(got) != math.Float64bits(want[j]) {
								t.Fatalf("%s: data %d un %d [%d,%d) vec %d: got %x want %x",
									e.name, di, un, lo, hi, j, math.Float64bits(got), math.Float64bits(want[j]))
							}
						}
					}
				}
			}
			// Segments: every non-empty segment stores the oracle's bits,
			// empty ones stay untouched.
			for _, e := range tab {
				if e.seg == nil {
					continue
				}
				Y := make([][]float64, e.w)
				for j := range Y {
					Y[j] = make([]float64, len(d.segs))
					for i := range Y[j] {
						Y[j][i] = math.NaN()
					}
				}
				done := e.seg(d, e.block, Y, make([]float64, e.w), un)
				nonEmpty := 0
				for i, s := range d.segs {
					if s.K1 > s.K0 {
						nonEmpty++
					}
					for j := range Y {
						want := math.NaN()
						if s.K1 > s.K0 {
							want = chainOracle(d.val, d.col, d.X[j], int(s.K0), int(s.K1), un)
						}
						if math.Float64bits(Y[j][i]) != math.Float64bits(want) {
							t.Fatalf("%s: data %d un %d seg %d [%d,%d) vec %d: got %x want %x",
								e.name, di, un, i, s.K0, s.K1, j, math.Float64bits(Y[j][i]), math.Float64bits(want))
						}
					}
				}
				if done != nonEmpty {
					t.Fatalf("%s: data %d un %d: %d segments done, want %d", e.name, di, un, done, nonEmpty)
				}
			}
		}
	}
	for key, found := range diaFound {
		if hasDia && !found {
			t.Fatalf("no run holds %d nonzeros from %d in (unrollLen %d)", key[2], key[1], key[0])
		}
	}
}

// benchSink keeps the benchmarked results live.
var benchSink float64

// BenchmarkKernels prices every kernel table entry on 64k nonzeros over
// a 16k-column x: gathers and segments on random columns, dia entries
// one call per run of 1..16 columns (a one-run row each). SetBytes is
// the value and index bytes the calls stream (block calls stream them
// once for all vectors; dia streams a 4-byte offset per row; segsum adds
// the 12-byte descriptors), so MB/s reads as effective stream bandwidth.
func BenchmarkKernels(b *testing.B) {
	const n = 1 << 16
	gather := newKernelData(1, n, 1<<14-1, 1)
	runs := newKernelData(2, n, 1<<14-1, 16)
	for _, e := range kernelTable() {
		d := gather
		if e.idx == "dia" {
			d = runs
		}
		idxBytes := map[string]int{"int": 8 * n, "u32": 4 * n, "dia": 4 * len(d.runs)}[e.idx]
		bytes := 8*n + idxBytes
		if e.seg != nil {
			bytes += 12 * len(d.segs)
		}
		b.Run(e.name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			out := make([]float64, e.w)
			Y := make([][]float64, e.w)
			for j := range Y {
				Y[j] = make([]float64, len(d.segs))
			}
			for i := 0; i < b.N; i++ {
				switch {
				case e.seg != nil:
					e.seg(d, e.block, Y, out, DefaultUnrollThreshold)
					benchSink += Y[0][len(d.segs)-1]
				case e.idx == "dia":
					for _, r := range d.runs {
						e.frag(d, e.block, out, r.lo, r.hi, DefaultUnrollThreshold)
					}
					benchSink += out[0]
				default:
					e.frag(d, e.block, out, 0, n, DefaultUnrollThreshold)
					benchSink += out[0]
				}
			}
		})
	}
}
