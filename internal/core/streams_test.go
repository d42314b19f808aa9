package core

import (
	"math"
	"reflect"
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

func TestIndexStatsPerMode(t *testing.T) {
	a := narrowMatrix(400)
	nnz := a.NNZ()

	auto := preparedWith(t, a, IndexAuto).IndexStats()
	if auto.NNZByFormat[Index32] != nnz || auto.StreamIndexBytes != 4*nnz || auto.DiaRows != 0 {
		t.Errorf("auto on run-free rows = %+v, want all %d nnz at 4 bytes, no runs", auto, nnz)
	}

	u32 := preparedWith(t, a, IndexU32).IndexStats()
	if u32.NNZByFormat[Index32] != nnz || u32.StreamIndexBytes != 4*nnz {
		t.Errorf("u32 stats = %+v, want all %d nnz at 4 bytes", u32, nnz)
	}

	ref := preparedWith(t, a, IndexReference).IndexStats()
	if ref.NNZByFormat[IndexInt] != nnz || ref.StreamIndexBytes != 8*nnz {
		t.Errorf("reference stats = %+v, want all %d nnz at 8 bytes", ref, nnz)
	}
	if ref.DiaRows != 0 {
		t.Errorf("reference mode built diagonal offsets: %+v", ref)
	}
}

// Auto format selection on the two shapes the per-region formats exist
// for: a 9-diagonal stencil with a trace of off-band defect rows, where
// diagonal offsets carry almost every nonzero (the defect rows ride the
// u32 fallback) and continuous values keep the palette out, and a 0/1
// random graph, where the one-entry palette engages and the scattered
// columns keep the diagonal format out. A band of two 16-column runs per
// row gets no diagonal offsets: under auto every nonzero runs on u32,
// and forcing the diagonal format leaves every row on its u32 fallback.
// Each instance's y equals the []int+f64 reference's at its cuts.
func TestAutoFormatSelection(t *testing.T) {
	sten := gen.StencilSpec{
		Name: "stencil9", Rows: 4096, Cols: 4096,
		Diagonals: 9, NoiseFrac: 0.002, Seed: 20260801,
	}.Generate()
	var twoRuns []int
	for o := 0; o < 16; o++ {
		twoRuns = append(twoRuns, o, 40+o)
	}
	band2 := gen.StencilSpec{
		Name: "band2x16", Rows: 2048, Cols: 2048 + 56,
		Offsets: twoRuns, Seed: 20260803,
	}.Generate()
	graph := gen.Spec{
		Name: "graph01", Rows: 2048, Cols: 2048,
		Dist:  gen.NormalLen{Mean: 16, Std: 4, Min: 1, Max: 32},
		Place: gen.Random, Seed: 20260802,
	}.Generate()
	for k := range graph.Val {
		graph.Val[k] = 1 // adjacency: every stored value exactly 1.0
	}
	for _, tc := range []struct {
		name           string
		a              *sparse.CSR
		opts           Options
		minDia, maxDia float64 // share of nnz on IndexDia
		val            ValueFormat
		// Index and value bytes per nnz stay at or below these; 0 skips
		// the check.
		maxIdxBytes, maxValBytes float64
		// noDiaRows demands no diagonal offsets and every nonzero on u32.
		noDiaRows bool
	}{
		{"stencil9/auto", sten, Options{}, 0.9, 1, ValF64, 2, 0, false},
		{"stencil9/dia", sten, Options{Index: IndexForceDia, Value: ValueReference}, 0.9, 1, ValF64, 2, 0, false},
		{"graph01/auto", graph, Options{}, 0, 0.05, ValPalette, 4, 1.5, false},
		{"graph01/u32-palette", graph, Options{Index: IndexU32}, 0, 0, ValPalette, 0, 1.5, false},
		{"graph01/reference", graph, Options{Index: IndexReference, Value: ValueReference}, 0, 0, ValF64, 0, 0, false},
		{"band2x16/auto", band2, Options{}, 0, 0, ValF64, 4, 0, true},
		{"band2x16/dia", band2, Options{Index: IndexForceDia, Value: ValueReference}, 0, 0, ValF64, 4, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := New(tc.opts).Prepare(amp.IntelI912900KF(), tc.a)
			if err != nil {
				t.Fatal(err)
			}
			p := prep.(*Prepared)
			ist, vst := p.IndexStats(), p.ValueStats()
			nnz := float64(tc.a.NNZ())
			if dia := float64(ist.NNZByFormat[IndexDia]) / nnz; dia < tc.minDia || dia > tc.maxDia {
				t.Errorf("dia nnz share = %.3f, want within [%v, %v] (split %v)",
					dia, tc.minDia, tc.maxDia, ist.NNZByFormat)
			}
			if idx := float64(ist.StreamIndexBytes) / nnz; tc.maxIdxBytes > 0 && (idx <= 0 || idx > tc.maxIdxBytes) {
				t.Errorf("index bytes/nnz = %.3f, want within (0, %v]", idx, tc.maxIdxBytes)
			}
			if vst.Format != tc.val {
				t.Errorf("value stream = %s, want %s", vst.Format, tc.val)
			}
			if val := float64(vst.StreamValueBytes) / nnz; tc.maxValBytes > 0 && val > tc.maxValBytes {
				t.Errorf("value bytes/nnz = %.3f, want at most %v", val, tc.maxValBytes)
			}
			if tc.noDiaRows && (ist.DiaRows != 0 || ist.NNZByFormat[Index32] != tc.a.NNZ()) {
				t.Errorf("index stats %+v, want no diagonal offsets and all %d nnz on u32", ist, tc.a.NNZ())
			}
			x := make([]float64, tc.a.Cols)
			for i := range x {
				x[i] = float64(i%17) - 8.5
			}
			y, want := make([]float64, tc.a.Rows), make([]float64, tc.a.Rows)
			p.Compute(y, x)
			referencePrepared(t, p, tc.a, tc.opts).Compute(want, x)
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Fatalf("y[%d] = %x, reference %x", i, math.Float64bits(y[i]), math.Float64bits(want[i]))
				}
			}
		})
	}
}

// A hub row spanning past 2^16 columns runs on the u32 stream like the
// narrow rows around it: auto leaves nothing on the []int path, every
// nonzero runs u32 or dia (whose per-row fallback walks the hub through
// u32 indices), and the mixed dispatch reproduces the reference
// multiply.
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
	st := p.IndexStats()
	if wide := st.NNZByFormat[Index32] + st.NNZByFormat[IndexDia]; wide != nnz {
		t.Errorf("u32+dia nnz = %d, want all %d (split %v)", wide, nnz, st.NNZByFormat)
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
			t.Fatalf("mixed-format y[%d] = %x, reference %x", i, y[i], ref[i])
		}
	}
}

// Repartition must re-pick formats without rebuilding streams: pushing
// every boundary around still covers all nonzeros with valid formats
// and stays bit-identical to a reference instance repartitioned the
// same way.
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
		st := p.IndexStats()
		if got := st.NNZByFormat[0] + st.NNZByFormat[1] + st.NNZByFormat[2] + st.NNZByFormat[3]; got != a.NNZ() {
			t.Fatalf("prop %v: format split %v covers %d of %d nnz", prop, st.NNZByFormat, got, a.NNZ())
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

// Auto's level-1 proportion prices the streams the regions run. On a
// matrix with no dia-eligible rows auto runs every region on u32, so it
// must resolve the same proportion and cut the same regions as IndexU32,
// even when a few rows are single-entry rows (a narrower stream could
// cover those, but no region would stream it). The footprint is above
// the machine's 8 MB L3, where the proportion depends on the index
// width.
func TestAutoProportionPricesAssignedStreams(t *testing.T) {
	const rows, cols, perRow = 16384, 1 << 17, 40
	c := &sparse.COO{Rows: rows, Cols: cols}
	r := uint64(20261019)
	next := func() uint64 { r ^= r << 13; r ^= r >> 7; r ^= r << 17; return r }
	for i := 0; i < rows; i++ {
		n := perRow
		if i%1024 == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			c.Add(i, int(next()%cols), 1+float64(next()%4096)/64)
		}
	}
	a := c.ToCSR()
	m := amp.ARMBigLittleLike()
	if fp := a.NNZ()*12 + cols*8 + rows*12; fp <= m.PGroup().L3Bytes {
		t.Fatalf("footprint %d B fits the %d B L3", fp, m.PGroup().L3Bytes)
	}
	prep := func(mode IndexMode) *Prepared {
		pr, err := New(Options{Index: mode}).Prepare(m, a)
		if err != nil {
			t.Fatal(err)
		}
		return pr.(*Prepared)
	}
	auto, u32 := prep(IndexAuto), prep(IndexU32)
	if st := auto.IndexStats(); st.DiaRows != 0 || st.NNZByFormat[Index32] != a.NNZ() {
		t.Fatalf("auto streams %+v, want every nonzero on u32 and no runs", st)
	}
	if auto.opts.PProportion != u32.opts.PProportion {
		t.Errorf("auto proportion %v, u32 %v", auto.opts.PProportion, u32.opts.PProportion)
	}
	if !reflect.DeepEqual(auto.Regions(), u32.Regions()) {
		t.Errorf("auto regions differ from u32's:\nauto %+v\nu32  %+v", auto.Regions(), u32.Regions())
	}
}
