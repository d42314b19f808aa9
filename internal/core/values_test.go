package core

import (
	"math"
	"reflect"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// Options.Value is inert: on all-ones matrices, where a single-value
// encoding would be cheapest, the instance with the default value mode
// and a ValueReference one stream f64 and take the same level-1
// proportion, the same regions and the same y bits, on every index
// stream and execution mode. The graph01-shaped matrix's f64 working
// set outgrows the machine's last-level cache. perfbench pins its
// reference with ValueReference at the default handle's cuts, so the
// two must not drift apart.
func TestValueOptionInert(t *testing.T) {
	m := amp.ARMBigLittleLike()
	ones := func(a *sparse.CSR) *sparse.CSR {
		for k := range a.Val {
			a.Val[k] = 1
		}
		return a
	}
	graph := ones(gen.Spec{
		Name: "graph01", Rows: 50_000, Cols: 50_000,
		Dist:  gen.NormalLen{Mean: 16, Std: 4, Min: 1, Max: 32},
		Place: gen.Random, Seed: 3,
	}.Generate())
	sten := ones(gen.StencilSpec{
		Name: "stencil9", Rows: 4096, Cols: 4096,
		Diagonals: 9, NoiseFrac: 0.002, Seed: 20260801,
	}.Generate())
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		opts Options
	}{
		{"graph01", graph, Options{}},
		{"graph01/u32", graph, Options{Index: IndexU32}},
		{"graph01/segsum", graph, Options{Exec: ExecSegSum}},
		{"stencil9", sten, Options{}},
		{"stencil9/dia", sten, Options{Index: IndexForceDia}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			x := make([]float64, a.Cols)
			for i := range x {
				x[i] = 0.5 + float64(i%13)/13
			}
			refOpts := tc.opts
			refOpts.Value = ValueReference
			var ps [2]*Prepared
			var ys [2][]float64
			for i, opts := range []Options{tc.opts, refOpts} {
				pp, err := New(opts).Prepare(m, a)
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = pp.(*Prepared)
				if vs := ps[i].ValueStats(); vs.Format != ValF64 || vs.StreamValueBytes != 8*a.NNZ() {
					t.Fatalf("opts %+v: value stats %+v, want f64 at 8 B/nnz", opts, vs)
				}
				ys[i] = make([]float64, a.Rows)
				ps[i].Compute(ys[i], x)
			}
			if p0, p1 := ps[0].Plan().PProportion, ps[1].Plan().PProportion; p0 != p1 {
				t.Fatalf("proportion %v by default, %v with ValueReference", p0, p1)
			}
			if !reflect.DeepEqual(ps[0].Regions(), ps[1].Regions()) {
				t.Fatal("default and ValueReference partitions differ")
			}
			for i := range ys[0] {
				if math.Float64bits(ys[0][i]) != math.Float64bits(ys[1][i]) {
					t.Fatalf("y[%d] = %x by default, %x with ValueReference", i, math.Float64bits(ys[0][i]), math.Float64bits(ys[1][i]))
				}
			}
		})
	}
}

// The value stream is the matrix's own []float64, read unchanged by
// every index stream and execution mode: on a banded matrix whose
// values are drawn from IEEE special cases, the u32, diagonal and
// segmented instances reproduce the []int serial reference at the same
// cuts, bit for bit on every finite or infinite output and NaN where
// it is NaN. NaN payloads are not compared: the Go kernel bodies leave
// the operand order of a NaN-NaN addition to the compiler.
func TestSpecialValuesMatchReference(t *testing.T) {
	m := amp.IntelI912900KF()
	ramp := func(n int) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = 1 + float64(i)/8
		}
		return r
	}
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff0000000000000 | payload) }
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		vals []float64
	}{
		{"one-value", []float64{1}},
		{"signed-zeros", []float64{0, negZero, negZero, 1.5}},
		{"subnormals", []float64{math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
			math.Float64frombits(1<<52 - 1), -math.SmallestNonzeroFloat64}},
		// Fewer than one in nine values is special, so some rows sum
		// none, some one and some two of them.
		{"infinities", append([]float64{math.Inf(1), math.Inf(-1)}, ramp(18)...)},
		{"nan-payloads", append([]float64{nan(1), nan(1 << 51), -math.NaN(), nan(3)}, ramp(28)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := gen.Spec{Name: tc.name, Rows: 400, Cols: 400, Dist: gen.ConstLen{L: 9},
				Place: gen.Banded, Seed: 11}.Generate()
			for k := range a.Val {
				a.Val[k] = tc.vals[k%len(tc.vals)]
			}
			x := make([]float64, a.Cols)
			for i := range x {
				x[i] = [...]float64{1, -2.5, 0.75, 1e-300, 3}[i%5]
			}
			for _, opts := range []Options{{}, {Index: IndexU32}, {Index: IndexForceDia}, {Exec: ExecSegSum}} {
				pp, err := New(opts).Prepare(m, a)
				if err != nil {
					t.Fatal(err)
				}
				p := pp.(*Prepared)
				if opts.Index == IndexForceDia && p.IndexStats().NNZByFormat[IndexDia] == 0 {
					t.Fatal("forced dia put no nonzero on diagonal offsets")
				}
				if opts.Exec == ExecSegSum && p.SegSumNNZ() == 0 {
					t.Fatal("forced segsum segmented no nonzero")
				}
				y, want := make([]float64, a.Rows), make([]float64, a.Rows)
				p.Compute(y, x)
				referencePrepared(t, p, a, opts).Compute(want, x)
				for i := range y {
					if math.IsNaN(y[i]) && math.IsNaN(want[i]) {
						continue
					}
					if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
						t.Fatalf("opts %+v: y[%d] = %x, reference %x", opts, i, math.Float64bits(y[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}
