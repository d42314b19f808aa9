package core

import (
	"math"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// narrowMatrix has every row span well under the u16 limit.
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
	if auto.NNZByFormat[Index16] != nnz {
		t.Errorf("auto on all-narrow rows: u16 nnz = %d, want all %d (split %v)",
			auto.NNZByFormat[Index16], nnz, auto.NNZByFormat)
	}
	if auto.StreamIndexBytes != 2*nnz {
		t.Errorf("auto stream bytes = %d, want %d", auto.StreamIndexBytes, 2*nnz)
	}
	if auto.Eligible16NNZ != nnz {
		t.Errorf("auto eligible nnz = %d, want %d", auto.Eligible16NNZ, nnz)
	}

	u32 := preparedWith(t, a, IndexU32).IndexStats()
	if u32.NNZByFormat[Index32] != nnz || u32.StreamIndexBytes != 4*nnz {
		t.Errorf("u32 stats = %+v, want all %d nnz at 4 bytes", u32, nnz)
	}

	ref := preparedWith(t, a, IndexReference).IndexStats()
	if ref.NNZByFormat[IndexInt] != nnz || ref.StreamIndexBytes != 8*nnz {
		t.Errorf("reference stats = %+v, want all %d nnz at 8 bytes", ref, nnz)
	}
	if ref.Eligible16NNZ != 0 {
		t.Errorf("reference mode computed delta analysis: %+v", ref)
	}
}

// Auto format selection on the two shapes the per-region formats exist
// for: a 9-diagonal stencil with a trace of off-band defect rows, where
// diagonal run descriptors carry almost every nonzero (the defect rows
// ride the u32 fallback) and continuous values keep the palette out,
// and a 0/1 random graph, where the one-entry palette engages and the
// scattered columns keep the diagonal format out.
func TestAutoFormatSelection(t *testing.T) {
	sten := gen.StencilSpec{
		Name: "stencil9", Rows: 4096, Cols: 4096,
		Diagonals: 9, NoiseFrac: 0.002, Seed: 20260801,
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
		// Index and value bytes per nnz stay below these; 0 skips the check.
		maxIdxBytes, maxValBytes float64
	}{
		{"stencil9/auto", sten, Options{}, 0.9, 1, ValF64, 2, 0},
		{"stencil9/dia", sten, Options{Index: IndexForceDia, Value: ValueReference}, 0.9, 1, ValF64, 2, 0},
		{"graph01/auto", graph, Options{}, 0, 0.05, ValPalette, 4, 1.5},
		{"graph01/u32-palette", graph, Options{Index: IndexU32}, 0, 0, ValPalette, 0, 1.5},
		{"graph01/reference", graph, Options{Index: IndexReference, Value: ValueReference}, 0, 0, ValF64, 0, 0},
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
			if idx := float64(ist.StreamIndexBytes) / nnz; tc.maxIdxBytes > 0 && (idx <= 0 || idx >= tc.maxIdxBytes) {
				t.Errorf("index bytes/nnz = %.3f, want within (0, %v)", idx, tc.maxIdxBytes)
			}
			if vst.Format != tc.val {
				t.Errorf("value stream = %s, want %s", vst.Format, tc.val)
			}
			if val := float64(vst.StreamValueBytes) / nnz; tc.maxValBytes > 0 && val >= tc.maxValBytes {
				t.Errorf("value bytes/nnz = %.3f, want below %v", val, tc.maxValBytes)
			}
		})
	}
}

// A hub row spanning past 2^16 columns must push the regions that touch
// it off the delta stream — to u32, or to the diagonal format whose
// per-row fallback walks the hub through u32 indices — while the narrow
// rows keep the delta stream, and the mixed dispatch must still
// reproduce the reference multiply.
func TestRegionFormatFallbackOnWideRow(t *testing.T) {
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
	hubLen := a.RowPtr[101] - a.RowPtr[100] // after duplicate merging

	p := preparedWith(t, a, IndexAuto)
	st := p.IndexStats()
	if want := cols - 1 - 500 + 500; st.MaxRowSpan < maxSpan16+1 {
		t.Errorf("max row span = %d, want > %d (hub spans ~%d)", st.MaxRowSpan, maxSpan16, want)
	}
	if st.Eligible16NNZ != nnz-hubLen {
		t.Errorf("eligible nnz = %d, want %d (all but the hub row)", st.Eligible16NNZ, nnz-hubLen)
	}
	if st.NNZByFormat[IndexInt] != 0 {
		t.Errorf("auto left %d nnz on the []int path", st.NNZByFormat[IndexInt])
	}
	if wide := st.NNZByFormat[Index32] + st.NNZByFormat[IndexDia]; wide < hubLen {
		t.Errorf("u32+dia nnz = %d, want at least the hub row's %d (split %v)",
			wide, hubLen, st.NNZByFormat)
	}
	if st.NNZByFormat[Index16] == 0 {
		t.Error("no region kept the u16 stream despite 200 narrow rows")
	}
	if st.NNZByFormat[0]+st.NNZByFormat[1]+st.NNZByFormat[2]+st.NNZByFormat[3] != nnz {
		t.Errorf("format split %v does not cover %d nnz", st.NNZByFormat, nnz)
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
