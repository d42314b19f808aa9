package core

import (
	"math"
	"math/rand"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

func TestExecModeString(t *testing.T) {
	for m, want := range map[ExecMode]string{
		ExecAuto: "auto", ExecSerial: "serial", ExecSegSum: "segsum", ExecMode(9): "ExecMode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("ExecMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// Forced segmented-sum execution must pass the full adversarial battery
// under every option family the serial path passes.
func TestSegSumCorrectnessAllMatrices(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, opts := range []Options{
		{Exec: ExecSegSum},
		{Exec: ExecSegSum, Index: IndexReference},
		{Exec: ExecSegSum, DisableReorder: true},
		{Exec: ExecSegSum, OneLevel: true},
		{Exec: ExecSegSum, Config: amp.EOnly},
		{Exec: ExecSegSum, Base: 2},
	} {
		alg := New(opts)
		t.Run(alg.Name()+"/"+opts.Index.String(), func(t *testing.T) {
			algtest.CheckAlgorithm(t, alg, m)
		})
	}
	algtest.CheckProperty(t, New(Options{Exec: ExecSegSum}), m, 10)
}

// segsumPair prepares the same matrix under the serial oracle and forced
// segmented execution with identical partitions.
func segsumPair(t *testing.T, name string) (serial, seg *Prepared) {
	t.Helper()
	a := algtest.Matrix(name)
	m := amp.IntelI912900KF()
	sp, err := New(Options{Exec: ExecSerial}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	serial = sp.(*Prepared)
	gp, err := New(Options{Exec: ExecSegSum, PProportion: serial.Plan().PProportion}).Prepare(m, a)
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
// 12900KF's 16 regions: forced segmented execution must arm the parallel
// patch on a group spanning 3+ cores, with every continuation region
// pointing back at its head.
func TestSegSumGroupBookkeeping(t *testing.T) {
	_, seg := segsumPair(t, "hub-row")
	regs := seg.Regions()
	maxSpan := 0
	for i, r := range regs {
		if r.ContFirst >= 0 {
			if !r.PatchCont {
				t.Errorf("region %d continues group %d but is not armed to patch", i, r.ContFirst)
			}
			head := regs[r.ContFirst]
			if !head.PatchHead || head.HeadLast < i {
				t.Errorf("region %d's head %d has HeadLast %d PatchHead %v", i, r.ContFirst, head.HeadLast, head.PatchHead)
			}
		}
		if r.HeadSpan > maxSpan {
			maxSpan = r.HeadSpan
		}
		if r.Lo < r.Hi && !r.SegSum {
			t.Errorf("region %d not segmented under ExecSegSum", i)
		}
	}
	if maxSpan < 3 {
		t.Fatalf("largest cut-row group spans %d regions, want >= 3 (hub row not split?)", maxSpan)
	}
	if seg.SegSumNNZ() != int64(seg.mat.NNZ()) {
		t.Fatalf("SegSumNNZ = %d, want all %d", seg.SegSumNNZ(), seg.mat.NNZ())
	}
}

// ExecAuto must turn segmented execution on where the skew predicts it
// pays (a hub row, a power-law profile) and leave regular matrices on
// the serial path.
func TestExecAutoDispatch(t *testing.T) {
	m := amp.IntelI912900KF()
	for _, name := range []string{"hub-row", "powerlaw"} {
		p, err := New(Options{}).Prepare(m, algtest.Matrix(name))
		if err != nil {
			t.Fatal(err)
		}
		if n := p.(*Prepared).SegSumNNZ(); n == 0 {
			t.Errorf("%s: auto dispatch assigned no segmented nnz (skew %+v)", name, p.(*Prepared).RowSkew())
		}
	}
	regular := gen.Spec{
		Name: "regular", Rows: 4000, Cols: 4000, TargetNNZ: 400_000,
		Dist: gen.ConstLen{L: 100}, Place: gen.Banded, Seed: 5,
	}.Generate()
	p, err := New(Options{}).Prepare(m, regular)
	if err != nil {
		t.Fatal(err)
	}
	rp := p.(*Prepared)
	if rp.skew.PreferSegSum(16) {
		t.Fatalf("regular matrix skew %+v passes the gate", rp.skew)
	}
	if n := rp.SegSumNNZ(); n != 0 {
		t.Errorf("regular matrix: auto dispatch assigned %d segmented nnz, want 0", n)
	}
}

// The satellite guard: the forced-segmented path keeps the zero-alloc
// contract, directly and through the exec dispatch helpers, for single
// vectors and batches.
func TestComputeSegSumZeroAllocs(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry enabled by another test")
	}
	a := algtest.Matrix("hub-row")
	prep, err := New(Options{Exec: ExecSegSum}).Prepare(amp.IntelI912900KF(), a)
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

// A segmented region walks its interior rows on a column stream, so it
// must be stamped and priced as exactly that: never IndexDia (whose row
// offsets no segmented kernel reads). On a power-law matrix whose rows of 8 or more nonzeros are laid out as one run of
// consecutive columns, the cheapest-bytes choice would pick dia for
// some of its regions.
func TestSegSumRegionsPricedAsStreamed(t *testing.T) {
	a := gen.ZipfSpec{Rows: 200000, Cols: 200000, TargetNNZ: 600000, Seed: 1}.Generate()
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if hi-lo < diaMinSingleRunLen {
			continue
		}
		c0 := min(a.ColIdx[lo], a.Cols-(hi-lo))
		for k := lo; k < hi; k++ {
			a.ColIdx[k] = c0 + k - lo
		}
	}
	m := amp.IntelI912900KF()
	pp, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := pp.(*Prepared)
	var segRegions, wantIdx int
	for i, r := range p.Regions() {
		if !r.SegSum {
			continue
		}
		segRegions++
		if r.Format == IndexDia {
			t.Errorf("segmented region %d stamped %v", i, r.Format)
		}
	}
	if segRegions == 0 {
		t.Fatal("auto picked no segmented region on a power-law matrix")
	}
	s := p.IndexStats()
	if s.DiaEligibleNNZ == 0 {
		t.Fatal("no row qualifies for diagonal offsets")
	}
	if s.NNZByFormat[IndexDia] != 0 {
		t.Errorf("%d nonzeros priced as dia", s.NNZByFormat[IndexDia])
	}
	for _, r := range p.Regions() {
		wantIdx += (r.Hi - r.Lo) * r.Format.BytesPerIndex()
	}
	if s.StreamIndexBytes != wantIdx {
		t.Errorf("StreamIndexBytes %d, want %d", s.StreamIndexBytes, wantIdx)
	}

	// The segmented interiors reproduce the []int serial oracle's bits.
	rp, err := New(Options{Index: IndexReference, Exec: ExecSerial,
		PProportion: p.Plan().PProportion}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	y := make([]float64, a.Rows)
	want := make([]float64, a.Rows)
	p.Compute(y, x)
	rp.Compute(want, x)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("y[%d] = %x, reference %x", i, math.Float64bits(y[i]), math.Float64bits(want[i]))
		}
	}
}
