package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// narrowMatrix has 3-7 entries per row at stride-7 columns, so no row
// has the run structure the diagonal format needs.
func narrowMatrix(rows int) *sparse.CSR {
	c := &sparse.COO{Rows: rows, Cols: 64}
	for i := 0; i < rows; i++ {
		for j := 0; j < 3+i%5; j++ {
			c.Add(i, (i+7*j)%64, 1+float64(i+j)/8)
		}
	}
	return c.ToCSR()
}

func preparedWith(t *testing.T, a *sparse.CSR, mode IndexMode) *Prepared {
	t.Helper()
	prep, err := New(Options{Index: mode}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	return prep.(*Prepared)
}

func TestIndexModeString(t *testing.T) {
	for m, want := range map[IndexMode]string{
		IndexAuto: "auto", IndexReference: "int", IndexMode(2): "IndexMode(2)",
	} {
		if got := m.String(); got != want {
			t.Errorf("IndexMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestIndexStatsPerMode(t *testing.T) {
	a := narrowMatrix(400)
	nnz := a.NNZ()

	auto := preparedWith(t, a, IndexAuto).IndexStats()
	if auto.NNZByFormat != [4]int{0, nnz, 0, 0} || auto.StreamIndexBytes != 4*nnz {
		t.Errorf("auto stats = %+v, want all %d nnz on u32 at 4 bytes", auto, nnz)
	}

	ref := preparedWith(t, a, IndexReference).IndexStats()
	if ref.NNZByFormat != [4]int{nnz, 0, 0, 0} || ref.StreamIndexBytes != 8*nnz {
		t.Errorf("reference stats = %+v, want all %d nnz at 8 bytes", ref, nnz)
	}
}

// onePathShapes are the matrix families the default path must serve:
// a 9-point stencil with off-band defect rows, a rank-law zipf matrix
// (mostly empty rows and a hub row), a 0/1 random graph, webbase-1M at
// two scales (2 is perfbench spmv-mix's class, 8 the serve-json one),
// and three Table II matrices: pdb1HYS and mip1, whose long clustered
// rows the row-skew dispatch once sent down the serial walk, and
// shipsec1, a band of one-run rows that once ran on diagonal offsets.
func onePathShapes() []struct {
	name string
	a    *sparse.CSR
} {
	graph := gen.Spec{
		Name: "graph01", Rows: 20_000, Cols: 20_000,
		Dist:  gen.NormalLen{Mean: 16, Std: 4, Min: 1, Max: 32},
		Place: gen.Random, Seed: 20260802,
	}.Generate()
	for k := range graph.Val {
		graph.Val[k] = 1
	}
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"stencil", gen.StencilSpec{Name: "stencil", Rows: 20_000, Cols: 20_000,
			Diagonals: 9, NoiseFrac: 0.002, Seed: 20260801}.Generate()},
		{"zipf", gen.ZipfSpec{Name: "zipf", Rows: 1 << 16, Cols: 1 << 16,
			TargetNNZ: 200_000, Seed: 20260803}.Generate()},
		{"graph01", graph},
		{"webbase-1M@2", gen.Representative("webbase-1M", 2)},
		{"webbase-1M@8", gen.Representative("webbase-1M", 8)},
		{"pdb1HYS", gen.Representative("pdb1HYS", 16)},
		{"mip1", gen.Representative("mip1", 16)},
		{"shipsec1", gen.Representative("shipsec1", 16)},
	}
}

// A default Prepare runs every nonzero of every shape segmented on the
// u32 stream, and its y equals the []int serial reference at the same
// cuts bit for bit: through Compute, through ComputeBatch at 1, 3, 4, 8
// and 9 vectors (one vector, a narrow remainder, the smallest packed
// tile, a full tile, and a tile plus a remainder), and after a
// Repartition.
func TestDefaultRunsSegmentedU32(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, tc := range onePathShapes() {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			nnz := a.NNZ()
			pp, err := New(Options{}).Prepare(m, a)
			if err != nil {
				t.Fatal(err)
			}
			p := pp.(*Prepared)
			ref := referencePrepared(t, p, a, Options{})
			r := rand.New(rand.NewSource(int64(nnz)))
			X := make([][]float64, 9)
			for v := range X {
				X[v] = make([]float64, a.Cols)
				for i := range X[v] {
					X[v][i] = r.NormFloat64()
				}
			}
			want := make([][]float64, len(X))
			check := func(stage string) {
				t.Helper()
				if seg, split := p.SegSumNNZ(), p.IndexStats().NNZByFormat; seg != int64(nnz) || split != [4]int{0, nnz, 0, 0} {
					t.Fatalf("%s: %d of %d nonzeros segmented, split %v, want all on u32", stage, seg, nnz, split)
				}
				if len(p.Regions()) != len(ref.Regions()) {
					t.Fatalf("%s: %d regions, reference %d", stage, len(p.Regions()), len(ref.Regions()))
				}
				for i, reg := range p.Regions() {
					if rr := ref.Regions()[i]; reg.Lo != rr.Lo || reg.Hi != rr.Hi {
						t.Fatalf("%s: region %d is [%d,%d), reference [%d,%d)", stage, i, reg.Lo, reg.Hi, rr.Lo, rr.Hi)
					}
				}
				for v, x := range X {
					want[v] = make([]float64, a.Rows)
					ref.Compute(want[v], x)
				}
				y := make([]float64, a.Rows)
				p.Compute(y, X[0])
				sameBits(t, stage+" Compute", y, want[0])
				for _, nv := range []int{1, 3, 4, 8, 9} {
					Y := make([][]float64, nv)
					for v := range Y {
						Y[v] = make([]float64, a.Rows)
					}
					p.ComputeBatch(Y, X[:nv])
					for v := range Y {
						sameBits(t, fmt.Sprintf("%s ComputeBatch nv=%d vector %d", stage, nv, v), Y[v], want[v])
					}
				}
			}
			check("prepare")
			plan := Plan{PProportion: 0.4}
			if err := p.Repartition(plan); err != nil {
				t.Fatal(err)
			}
			if err := ref.Repartition(plan); err != nil {
				t.Fatal(err)
			}
			check("repartition")
		})
	}
}

// sameBits fails the test at the first element of got whose bits differ
// from want's.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %x, reference %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// A hub row spanning past 2^16 columns runs on the u32 stream like the
// narrow rows around it: auto leaves nothing on the []int path, and the
// multiply reproduces the reference.
func TestWideColumnSpanRunsU32(t *testing.T) {
	const cols = 70000
	c := &sparse.COO{Rows: 200, Cols: cols}
	for i := 0; i < 200; i++ {
		for j := 0; j < 4; j++ {
			c.Add(i, (i*3+j)%100, 1+float64(i%9))
		}
	}
	for j := 0; j < cols; j += 500 { // row 100 spans the full width
		c.Add(100, j, 0.5)
	}
	a := c.ToCSR()
	nnz := a.NNZ()

	p := preparedWith(t, a, IndexAuto)
	if st := p.IndexStats(); st.NNZByFormat[Index32] != nnz {
		t.Errorf("u32 nnz = %d, want all %d (split %v)", st.NNZByFormat[Index32], nnz, st.NNZByFormat)
	}

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%11)/8
	}
	y := make([]float64, a.Rows)
	p.Compute(y, x)
	ref := make([]float64, a.Rows)
	preparedWith(t, a, IndexReference).Compute(ref, x)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("u32 y[%d] = %x, reference %x", i, y[i], ref[i])
		}
	}
}

// Repartition must re-stamp formats without rebuilding streams: pushing
// every boundary around still covers all nonzeros on u32 and stays
// bit-identical to a reference instance repartitioned the same way.
func TestRepartitionReassignsFormats(t *testing.T) {
	a := narrowMatrix(300)
	p := preparedWith(t, a, IndexAuto)
	ref := preparedWith(t, a, IndexReference)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	y := make([]float64, a.Rows)
	want := make([]float64, a.Rows)
	for _, prop := range []float64{0.2, 0.9, 0.55} {
		if err := p.Repartition(Plan{PProportion: prop}); err != nil {
			t.Fatal(err)
		}
		if err := ref.Repartition(Plan{PProportion: prop}); err != nil {
			t.Fatal(err)
		}
		if st := p.IndexStats(); st.NNZByFormat != [4]int{0, a.NNZ(), 0, 0} {
			t.Fatalf("prop %v: format split %v, want all %d nnz on u32", prop, st.NNZByFormat, a.NNZ())
		}
		p.Compute(y, x)
		ref.Compute(want, x)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
				t.Fatalf("prop %v: y[%d] = %x, reference %x", prop, i, y[i], want[i])
			}
		}
	}
}

// ProportionFor is the proportion a default Prepare cuts at, so the
// value cmd/mminfo prints and the one benchmarks pin reproduce the
// default partition. The matrices are the four spmv-mix class shapes,
// sized so their footprint is past the machine's 8 MB L3, where the
// proportion depends on the bytes per nonzero.
func TestProportionForMatchesPrepare(t *testing.T) {
	m := amp.ARMBigLittleLike()
	graph := gen.Spec{
		Name: "graph01", Rows: 60_000, Cols: 60_000,
		Dist:  gen.NormalLen{Mean: 16, Std: 4, Min: 1, Max: 32},
		Place: gen.Random, Seed: 3,
	}.Generate()
	for k := range graph.Val {
		graph.Val[k] = 1
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"stencil", gen.StencilSpec{Name: "stencil", Rows: 100_000, Cols: 100_000,
			Diagonals: 9, NoiseFrac: 0.002, Seed: 5}.Generate()},
		{"zipf", gen.ZipfSpec{Name: "zipf", Rows: 1 << 18, Cols: 1 << 18,
			TargetNNZ: 750_000, Seed: 6}.Generate()},
		{"graph01", graph},
		{"webbase", gen.Representative("webbase-1M", 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			if fp := a.NNZ()*12 + a.Cols*8 + a.Rows*12; fp <= m.PGroup().L3Bytes {
				t.Fatalf("footprint %d B fits the %d B L3", fp, m.PGroup().L3Bytes)
			}
			prep := func(opts Options) *Prepared {
				pr, err := New(opts).Prepare(m, a)
				if err != nil {
					t.Fatal(err)
				}
				return pr.(*Prepared)
			}
			auto := prep(Options{})
			want := ProportionFor(m, a)
			if got := auto.Plan().PProportion; got != want {
				t.Fatalf("default Prepare cuts at %v, ProportionFor says %v", got, want)
			}
			if pinned := prep(Options{PProportion: want}); !reflect.DeepEqual(auto.Regions(), pinned.Regions()) {
				t.Errorf("regions pinned at ProportionFor differ from the default's")
			}
		})
	}
}

// past32 returns 2^31, one past the 32-bit size limit, computed at run
// time so the package still compiles where int is 32 bits (there it
// wraps negative, which Prepare refuses too).
func past32() int {
	n := int64(math.MaxInt32)
	return int(n + 1)
}

// Prepare refuses a matrix past the 32-bit size limit with one error
// before it builds any stream: a CSR with 2^31 columns and three
// nonzeros is refused without a large allocation, and the same check
// refuses rows and nonzeros past the limit.
func TestPrepareRefusesPast32Bit(t *testing.T) {
	cols := past32()
	a := &sparse.CSR{Rows: 2, Cols: cols, RowPtr: []int{0, 2, 3},
		ColIdx: []int{0, cols - 1, 5}, Val: []float64{1, 2, 3}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(Options{}).Prepare(amp.IntelI912900KF(), a)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Prepare accepted 2^31 columns")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("refusing the matrix allocated %d bytes", grown)
	}
	if math.MaxInt == math.MaxInt32 {
		return // int is 32 bits: no count can pass the limit
	}
	if !strings.Contains(err.Error(), "32-bit limit") {
		t.Errorf("error %q does not name the 32-bit limit", err)
	}
	for _, c := range [][3]int{{cols, 1, 1}, {1, cols, 1}, {1, 1, cols}} {
		if checkSize(c[0], c[1], c[2]) == nil {
			t.Errorf("checkSize(%d, %d, %d) accepted", c[0], c[1], c[2])
		}
	}
	if err := checkSize(math.MaxInt32, math.MaxInt32, math.MaxInt32); err != nil {
		t.Errorf("the largest 32-bit counts refused: %v", err)
	}
}
