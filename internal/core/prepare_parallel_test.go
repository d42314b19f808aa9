package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/sparse"
)

// withGrain forces the parallel Prepare sweeps into multi-chunk execution
// (grain 1) or the serial fast path (a huge grain) for the duration of f.
// Tests using it mutate the package-level knob and must not run parallel.
func withGrain(g int, f func()) {
	old := prepGrain
	prepGrain = g
	defer func() { prepGrain = old }()
	f()
}

func TestPrefixSumMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4097} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = r.Intn(9) - 1
		}
		want := append([]int(nil), xs...)
		acc := 0
		for i := range want {
			acc += want[i]
			want[i] = acc
		}
		got := append([]int(nil), xs...)
		withGrain(1, func() { prefixSum(got) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: parallel prefix sum %v, want %v", n, got, want)
		}
		got2 := append([]int(nil), xs...)
		withGrain(1<<30, func() { prefixSum(got2) })
		if !reflect.DeepEqual(got2, want) {
			t.Fatalf("n=%d: serial prefix sum %v, want %v", n, got2, want)
		}
	}
}

func TestCollectEmptyRowsMatchesSerial(t *testing.T) {
	for _, name := range []string{"fig1-8x8", "alternating-empty", "powerlaw", "hub-row"} {
		a := algtest.Matrix(name)
		var serial, parallel []int
		withGrain(1<<30, func() { serial = collectEmptyRows(a) })
		withGrain(1, func() { parallel = collectEmptyRows(a) })
		if len(serial) == 0 && len(parallel) == 0 {
			continue
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: serial %v vs parallel %v", name, serial, parallel)
		}
		for _, i := range serial {
			if a.RowPtr[i+1] != a.RowPtr[i] {
				t.Fatalf("%s: row %d reported empty but has nonzeros", name, i)
			}
		}
	}
}

// The two-pass counting sort must reproduce the serial reorder
// bit-identically — same Perm, same RowPtr, same fused empty list — on
// every base, including ones that put all rows in one class.
func TestConvertParallelMatchesSerial(t *testing.T) {
	mats := []*sparse.CSR{
		algtest.Matrix("fig1-8x8"),
		algtest.Matrix("alternating-empty"),
		algtest.Matrix("powerlaw"),
		algtest.Matrix("hub-row"),
		algtest.Matrix("tall-rect"),
	}
	for _, a := range mats {
		for _, base := range []int{1, 2, 4, 64, 1 << 30} {
			var hs, hp *HACSR
			var es, ep []int
			withGrain(1<<30, func() { hs, es = convert(a, base) })
			withGrain(1, func() { hp, ep = convert(a, base) })
			if !reflect.DeepEqual(hs, hp) {
				t.Fatalf("%dx%d base %d: parallel HACSR differs\nserial   %+v\nparallel %+v",
					a.Rows, a.Cols, base, hs, hp)
			}
			if !reflect.DeepEqual(es, ep) {
				t.Fatalf("%dx%d base %d: empty rows %v vs %v", a.Rows, a.Cols, base, es, ep)
			}
			if err := hp.Validate(a); err != nil {
				t.Fatalf("%dx%d base %d: %v", a.Rows, a.Cols, base, err)
			}
		}
	}
}

func TestCostSumParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"fig1-8x8", "powerlaw", "hub-row"} {
		a := algtest.Matrix(name)
		h := Convert(a, AutoBase(a))
		for _, metric := range []CostMetric{CacheLineCost, NNZCost, RowCost} {
			var serial, parallel []int
			withGrain(1<<30, func() { serial = costSum(a, h, metric) })
			withGrain(1, func() { parallel = costSum(a, h, metric) })
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("%s/%v: cost sums differ\nserial   %v\nparallel %v",
					name, metric, serial, parallel)
			}
		}
	}
}

// Prepare's chunked validation must fail exactly as the serial
// sparse.Validate does: the same first offender, and a row-pointer fault
// before any column fault, with the bad entries in late chunks.
func TestPrepareValidationMatchesSerial(t *testing.T) {
	const n = 64 // a 64x64 matrix with 2 nonzeros per row
	good := func() *sparse.CSR {
		a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
		for i := 0; i < n; i++ {
			a.ColIdx = append(a.ColIdx, i, (i+1)%n)
			a.Val = append(a.Val, 2, -1)
			a.RowPtr[i+1] = len(a.ColIdx)
		}
		return a
	}
	cases := []struct {
		name   string
		mangle func(a *sparse.CSR)
	}{
		{"valid", func(a *sparse.CSR) {}},
		{"negative-rows", func(a *sparse.CSR) { a.Rows = -1 }},
		{"negative-cols", func(a *sparse.CSR) { a.Cols = -2 }},
		{"rowptr-short", func(a *sparse.CSR) { a.RowPtr = a.RowPtr[:n] }},
		{"rowptr0", func(a *sparse.CSR) { a.RowPtr[0] = 1 }},
		{"not-monotone-late", func(a *sparse.CSR) { a.RowPtr[n-3] = a.RowPtr[n-2] + 1 }},
		{"past-colidx-late", func(a *sparse.CSR) { a.RowPtr[n-5] = 10 * n }},
		{"two-row-faults", func(a *sparse.CSR) {
			a.RowPtr[n-2] = a.RowPtr[n-1] + 1 // late chunk
			a.RowPtr[n/2] = a.RowPtr[n/2+1] + 1
		}},
		{"row-before-col", func(a *sparse.CSR) {
			a.ColIdx[0] = n // first chunk of the column sweep
			a.RowPtr[n-3] = a.RowPtr[n-2] + 1
		}},
		{"colidx-length", func(a *sparse.CSR) { a.ColIdx = append(a.ColIdx, 0) }},
		{"val-length", func(a *sparse.CSR) { a.Val = a.Val[:len(a.Val)-1] }},
		{"col-negative-late", func(a *sparse.CSR) { a.ColIdx[2*n-2] = -1 }},
		{"col-too-big-late", func(a *sparse.CSR) { a.ColIdx[2*n-7] = n }},
		{"two-col-faults", func(a *sparse.CSR) {
			a.ColIdx[2*n-1] = n + 5
			a.ColIdx[n+3] = -7
		}},
		{"empty-rows", func(a *sparse.CSR) {
			for i := range a.RowPtr {
				a.RowPtr[i] = 0
			}
			a.ColIdx, a.Val = a.ColIdx[:0], a.Val[:0]
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m := amp.IntelI912900KF()
	for _, tc := range cases {
		a := good()
		tc.mangle(a)
		want := a.Validate()
		for _, grain := range []int{1, 3, 1 << 30} {
			var err error
			withGrain(grain, func() { _, err = New(Options{}).Prepare(m, a) })
			if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
				t.Fatalf("%s (grain %d, %d row chunks): Prepare error %v, want Validate's %v",
					tc.name, grain, exec.RangeChunks(a.Rows, prepWidth(), grain), err, want)
			}
		}
	}
}
