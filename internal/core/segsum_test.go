package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

func TestExecModeString(t *testing.T) {
	for m, want := range map[ExecMode]string{
		ExecAuto: "auto", ExecSerial: "serial", ExecMode(9): "ExecMode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("ExecMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// The serial walk (ExecSerial, the paper's Algorithm 5 and the oracle
// the segmented default is compared against) must pass the full
// adversarial battery under every option family the default passes in
// TestCorrectnessAllMachinesAndOptions; the segmented walk over the
// []int reference stream runs it here too, the one default-exec
// combination that test does not.
func TestSerialCorrectnessAllMatrices(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, opts := range []Options{
		{Exec: ExecSerial},
		{Exec: ExecSerial, Index: IndexReference},
		{Exec: ExecSerial, DisableReorder: true},
		{Exec: ExecSerial, OneLevel: true},
		{Exec: ExecSerial, Config: amp.EOnly},
		{Exec: ExecSerial, Base: 2},
		{Index: IndexReference},
	} {
		alg := New(opts)
		name := fmt.Sprintf("%s/%v/%v/reorder=%t/onelevel=%t/base=%d", alg.Name(), opts.Exec, opts.Index, !opts.DisableReorder, opts.OneLevel, opts.Base)
		t.Run(name, func(t *testing.T) {
			algtest.CheckAlgorithm(t, alg, m)
		})
	}
	algtest.CheckProperty(t, New(Options{Exec: ExecSerial}), m, 10)
}

// segsumPair prepares the same matrix under the serial oracle and the
// default segmented execution with identical partitions.
func segsumPair(t *testing.T, name string) (serial, seg *Prepared) {
	t.Helper()
	a := algtest.Matrix(name)
	m := amp.IntelI912900KF()
	sp, err := New(Options{Exec: ExecSerial}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	serial = sp.(*Prepared)
	gp, err := New(Options{PProportion: serial.Plan().PProportion}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	seg = gp.(*Prepared)
	return serial, seg
}

// The acceptance contract: segmented execution is bit-identical to the
// serial-epilogue path — single vector, batch, and after Repartition
// moves the cut rows around.
func TestSegSumBitIdenticalToSerial(t *testing.T) {
	for _, tc := range algtest.Battery() {
		if tc.A.Rows == 0 || tc.A.Cols == 0 {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			serial, seg := segsumPair(t, tc.Name)
			r := rand.New(rand.NewSource(7))
			x := make([]float64, tc.A.Cols)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			want := make([]float64, tc.A.Rows)
			got := make([]float64, tc.A.Rows)
			check := func(stage string) {
				t.Helper()
				serial.Compute(want, x)
				seg.Compute(got, x)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: y[%d] = %x, want %x", stage, i,
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				const nv = 5
				X, Want, Got := make([][]float64, nv), make([][]float64, nv), make([][]float64, nv)
				for v := range X {
					X[v] = make([]float64, tc.A.Cols)
					copy(X[v], x)
					if tc.A.Cols > 0 {
						X[v][v%tc.A.Cols] += float64(v)
					}
					Want[v] = make([]float64, tc.A.Rows)
					Got[v] = make([]float64, tc.A.Rows)
				}
				serial.ComputeBatch(Want, X)
				seg.ComputeBatch(Got, X)
				for v := range Want {
					for i := range Want[v] {
						if math.Float64bits(Got[v][i]) != math.Float64bits(Want[v][i]) {
							t.Fatalf("%s: Y[%d][%d] = %x, want %x", stage, v, i,
								math.Float64bits(Got[v][i]), math.Float64bits(Want[v][i]))
						}
					}
				}
			}
			check("prepare")
			plan := Plan{PProportion: 0.3}
			if err := serial.Repartition(plan); err != nil {
				t.Fatal(err)
			}
			if err := seg.Repartition(plan); err != nil {
				t.Fatal(err)
			}
			check("repartition")
		})
	}
}

// hub-row splits one row holding a third of the matrix across the
// 12900KF's 16 regions: segmented execution must chain a group spanning
// 3+ cores, with every continuation region pointing back at its head,
// and ExecSerial must chain none.
func TestSegSumGroupBookkeeping(t *testing.T) {
	serial, seg := segsumPair(t, "hub-row")
	regs := seg.Regions()
	maxSpan := 0
	for i, r := range regs {
		if r.ContFirst >= 0 {
			if head := regs[r.ContFirst]; head.HeadLast < i {
				t.Errorf("region %d's head %d has HeadLast %d", i, r.ContFirst, head.HeadLast)
			}
		}
		if r.HeadSpan > maxSpan {
			maxSpan = r.HeadSpan
		}
	}
	if maxSpan < 3 {
		t.Fatalf("largest cut-row group spans %d regions, want >= 3 (hub row not split?)", maxSpan)
	}
	if seg.SegSumNNZ() != int64(seg.mat.NNZ()) {
		t.Fatalf("SegSumNNZ = %d, want all %d", seg.SegSumNNZ(), seg.mat.NNZ())
	}
	for i, r := range serial.Regions() {
		if r.ContFirst >= 0 || r.HeadLast >= 0 || r.HeadSpan != 0 {
			t.Errorf("ExecSerial region %d: %+v, want no segmented group", i, r)
		}
	}
	if n := serial.SegSumNNZ(); n != 0 {
		t.Errorf("ExecSerial SegSumNNZ = %d, want 0", n)
	}
}

// The satellite guard: the segmented path keeps the zero-alloc
// contract, directly and through the exec dispatch helpers, for single
// vectors and batches.
func TestComputeSegSumZeroAllocs(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry enabled by another test")
	}
	a := algtest.Matrix("hub-row")
	prep, err := New(Options{}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, a.Rows)
	var bd tracing.ComputeBreakdown
	p.Compute(y, x) // warm scratch
	if n := testing.AllocsPerRun(100, func() { p.Compute(y, x) }); n != 0 {
		t.Fatalf("Compute allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		bd.Reset()
		exec.ComputeTraced(p, y, x, &bd)
	}); n != 0 {
		t.Fatalf("exec.ComputeTraced allocates %.1f/op, want 0", n)
	}
	const maxNV = 9
	X := make([][]float64, maxNV)
	Y := make([][]float64, maxNV)
	for v := range X {
		X[v] = x
		Y[v] = make([]float64, a.Rows)
	}
	p.ComputeBatch(Y, X) // warm batch scratch at the widest width
	for _, nv := range []int{maxNV, 4, 1} {
		if n := testing.AllocsPerRun(100, func() {
			bd.Reset()
			exec.ComputeBatchTraced(p, Y[:nv], X[:nv], &bd)
		}); n != 0 {
			t.Fatalf("nv=%d: exec.ComputeBatchTraced allocates %.1f/op, want 0", nv, n)
		}
	}
}
