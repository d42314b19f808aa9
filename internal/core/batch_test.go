package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// TestComputeBatchMatchesCompute checks every batch column bit for bit
// against its single-vector Compute on the test matrices, and on two
// 9-diagonal bands that run on diagonal row offsets: a stencil with
// off-band defect rows, whose u32 fallback fragments read the
// interleaved x tiles inside dia regions, and a band whose every row is
// one 9-column run, where no row gathers and the pack pass is skipped.
func TestComputeBatchMatchesCompute(t *testing.T) {
	m := amp.IntelI912900KF()
	type tcase struct {
		name         string
		a            *sparse.CSR
		nvs          []int
		dia, gathers bool // every region on dia offsets; some row gathers
	}
	cases := []tcase{
		{"stencil9-defects", gen.StencilSpec{Rows: 4096, Cols: 4096, Diagonals: 9, NoiseFrac: 0.01, Seed: 20260801}.Generate(),
			[]int{2, 3, 8, 9, 11}, true, true},
		{"band9", gen.StencilSpec{Rows: 4096, Cols: 4104, Offsets: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, Seed: 20260801}.Generate(),
			[]int{2, 9}, true, false},
	}
	for _, name := range []string{"powerlaw", "alternating-empty", "hub-row", "tall-rect"} {
		cases = append(cases, tcase{name, algtest.Matrix(name), []int{5}, false, true})
	}
	for _, tc := range cases {
		a := tc.a
		prep, err := New(Options{}).Prepare(m, a)
		if err != nil {
			t.Fatal(err)
		}
		p := prep.(*Prepared)
		if p.gathers(p.Regions()) != tc.gathers {
			t.Fatalf("%s: gathers = %v, want %v", tc.name, !tc.gathers, tc.gathers)
		}
		if tc.dia && p.IndexStats().NNZByFormat[IndexDia] != a.NNZ() {
			t.Fatalf("%s: nonzeros by format %v, want all on dia offsets", tc.name, p.IndexStats().NNZByFormat)
		}
		r := rand.New(rand.NewSource(77))
		for _, nv := range tc.nvs {
			X := make([][]float64, nv)
			Y := make([][]float64, nv)
			for v := range X {
				X[v] = make([]float64, a.Cols)
				for i := range X[v] {
					X[v][i] = r.NormFloat64()
				}
				Y[v] = make([]float64, a.Rows)
				for i := range Y[v] {
					Y[v][i] = 1e300 // poison
				}
			}
			p.ComputeBatch(Y, X)
			for v := range X {
				want := make([]float64, a.Rows)
				p.Compute(want, X[v])
				for i := range want {
					if math.Float64bits(Y[v][i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s nv=%d: batch[%d][%d] = %v, want %v (bitwise)", tc.name, nv, v, i, Y[v][i], want[i])
					}
				}
			}
		}
	}
}

// TestComputeBatchMatchesComputeAcrossNV sweeps the vector tiling:
// a call walks each region once per min(nv, MaxBlock)-wide tile (nv = 17
// is 8+8+1, nv = 9 is 8+1, nv = 5 one 5-wide tile), and every tile width
// must agree with per-vector Compute, including on rows cut across
// regions (hub-row's giant row), on the width-1 remainder tile of a
// segmented region, and after shrinking nv below a previous call's
// capacity (scratch reuse).
func TestComputeBatchMatchesComputeAcrossNV(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		opts Options
	}{
		{"powerlaw", algtest.Matrix("powerlaw"), Options{}},
		{"hub-row", algtest.Matrix("hub-row"), Options{}},
		{"alternating-empty", algtest.Matrix("alternating-empty"), Options{}},
		{"hub-row/segsum", algtest.Matrix("hub-row"), Options{Exec: ExecSegSum}},
	} {
		name, a := tc.name, tc.a
		prep, err := New(tc.opts).Prepare(m, a)
		if err != nil {
			t.Fatal(err)
		}
		p := prep.(*Prepared)
		cut := false
		for _, reg := range p.Regions() {
			if reg.Lo < reg.Hi && p.Format().RowPtr[reg.StartRow] < reg.Lo {
				cut = true
			}
		}
		if strings.HasPrefix(name, "hub-row") && !cut {
			t.Fatalf("%s partition produced no mid-row cut; batch epilogue untested", name)
		}
		if tc.opts.Exec == ExecSegSum && p.SegSumNNZ() != int64(a.NNZ()) {
			t.Fatalf("%s: %d of %d nonzeros segmented", name, p.SegSumNNZ(), a.NNZ())
		}
		r := rand.New(rand.NewSource(42))
		// Descending order makes later iterations reuse a scratch whose
		// capacity exceeds nv.
		for _, nv := range []int{17, 9, 8, 5, 3, 2, 1} {
			X := make([][]float64, nv)
			Y := make([][]float64, nv)
			for v := range X {
				X[v] = make([]float64, a.Cols)
				for i := range X[v] {
					X[v][i] = r.NormFloat64()
				}
				Y[v] = make([]float64, a.Rows)
				for i := range Y[v] {
					Y[v][i] = 1e300 // poison
				}
			}
			p.ComputeBatch(Y, X)
			for v := range X {
				want := make([]float64, a.Rows)
				p.Compute(want, X[v])
				for i := range want {
					if Y[v][i] != want[i] {
						t.Fatalf("%s nv=%d: batch[%d][%d] = %v, want %v (bitwise)", name, nv, v, i, Y[v][i], want[i])
					}
				}
			}
		}
	}
}

// The pooled workspace must survive capacity growth: a small batch, then
// one larger than the rounded-up capacity, then small again.
func TestComputeBatchScratchGrowth(t *testing.T) {
	m := amp.IntelI912900KF()
	a := algtest.Matrix("hub-row")
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	r := rand.New(rand.NewSource(7))
	for _, nv := range []int{2, 17, 3, 9, 1} {
		X := make([][]float64, nv)
		Y := make([][]float64, nv)
		for v := range X {
			X[v] = make([]float64, a.Cols)
			for i := range X[v] {
				X[v][i] = r.NormFloat64()
			}
			Y[v] = make([]float64, a.Rows)
		}
		p.ComputeBatch(Y, X)
		for v := range X {
			want := make([]float64, a.Rows)
			a.MulVec(want, X[v])
			for i := range want {
				if math.Abs(Y[v][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("nv=%d vec %d row %d: got %v want %v", nv, v, i, Y[v][i], want[i])
				}
			}
		}
	}
}

func TestComputeBatchViaExecHelper(t *testing.T) {
	m := amp.IntelI913900KF()
	a := gen.Representative("dawson5", 64)
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	// The helper must route to the fused path for core's Prepared...
	if _, ok := exec.Prepared(prep).(exec.BatchPrepared); !ok {
		t.Fatal("core Prepared does not implement BatchPrepared")
	}
	X := [][]float64{make([]float64, a.Cols), make([]float64, a.Cols)}
	Y := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}
	for i := range X[0] {
		X[0][i] = 1
		X[1][i] = float64(i % 3)
	}
	exec.ComputeBatch(prep, Y, X)
	for v := range X {
		want := make([]float64, a.Rows)
		a.MulVec(want, X[v])
		for i := range want {
			if math.Abs(Y[v][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("vector %d row %d", v, i)
			}
		}
	}
}

func TestComputeBatchValidation(t *testing.T) {
	m := amp.IntelI912900KF()
	a := algtest.Matrix("fig1-8x8")
	prep, _ := New(Options{}).Prepare(m, a)
	p := prep.(*Prepared)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	good := [][]float64{make([]float64, a.Cols)}
	goodY := [][]float64{make([]float64, a.Rows)}
	expectPanic("size mismatch", func() { p.ComputeBatch(goodY, append(good, good[0])) })
	expectPanic("short x", func() { p.ComputeBatch(goodY, [][]float64{make([]float64, 2)}) })
	expectPanic("short y", func() { p.ComputeBatch([][]float64{make([]float64, 2)}, good) })
	// Empty batch is a no-op.
	p.ComputeBatch(nil, nil)
}

// Compute and ComputeBatch claim one pooled workspace. Concurrent calls
// of both kinds and of different widths on one Prepared (segmented, so
// the pooled patch counters are in play) must each get a workspace of
// their own and produce the serial bits.
func TestComputeAndBatchShareScratchConcurrently(t *testing.T) {
	a := algtest.Matrix("hub-row")
	prep, err := New(Options{Exec: ExecSegSum}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	r := rand.New(rand.NewSource(5))
	const maxNV = 9
	X := make([][]float64, maxNV)
	want := make([][]float64, maxNV)
	for v := range X {
		X[v] = make([]float64, a.Cols)
		for i := range X[v] {
			X[v][i] = r.NormFloat64()
		}
		want[v] = make([]float64, a.Rows)
		p.Compute(want[v], X[v])
	}
	const workers, iters = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			Y := make([][]float64, maxNV)
			for v := range Y {
				Y[v] = make([]float64, a.Rows)
			}
			for it := 0; it < iters; it++ {
				nv := 1
				if w%2 == 0 {
					p.Compute(Y[0], X[0])
				} else {
					nv = []int{1, maxNV, 3}[it%3]
					p.ComputeBatch(Y[:nv], X[:nv])
				}
				for v := 0; v < nv; v++ {
					for i := range Y[v] {
						if Y[v][i] != want[v][i] {
							errs <- fmt.Errorf("worker %d nv=%d: y[%d][%d] = %v, want %v (bitwise)", w, nv, v, i, Y[v][i], want[v][i])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
