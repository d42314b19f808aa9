package haspmv

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	m := IntelI912900KF()
	a := Representative("rma10", 64)
	h, err := Analyze(m, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.Name(), "HASpMV") {
		t.Fatalf("name: %s", h.Name())
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, a.Rows)
	h.Multiply(y, x)
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	r := h.Simulate(nil)
	if r.Seconds <= 0 || r.GFlops <= 0 {
		t.Fatalf("simulate: %+v", r)
	}
	p := DefaultModelParams()
	if r2 := h.Simulate(&p); r2.Seconds != r.Seconds {
		t.Fatal("explicit default params changed the estimate")
	}
}

func TestBaselineNames(t *testing.T) {
	m := AMDRyzen97950X3D()
	a := Representative("dawson5", 64)
	for _, name := range []string{"csr", "csr-nnz", "mkl", "aocl", "csr5", "merge"} {
		h, err := AnalyzeBaseline(name, PAndE, m, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y := make([]float64, a.Rows)
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = 1
		}
		h.Multiply(y, x)
		want := make([]float64, a.Rows)
		a.MulVec(want, x)
		for i := range want {
			if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s: wrong result at %d", name, i)
			}
		}
	}
	if _, err := AnalyzeBaseline("spmv9000", PAndE, m, a); err == nil {
		t.Fatal("unknown baseline accepted")
	} else if !strings.Contains(err.Error(), "spmv9000") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestMultiplyBatchFusedAndFallback(t *testing.T) {
	m := IntelI912900KF()
	a := Representative("cop20k_A", 64)
	X := make([][]float64, 3)
	for v := range X {
		X[v] = make([]float64, a.Cols)
		for i := range X[v] {
			X[v][i] = float64((i+v)%5) - 2
		}
	}
	wants := make([][]float64, len(X))
	for v := range X {
		wants[v] = make([]float64, a.Rows)
		a.MulVec(wants[v], X[v])
	}
	check := func(h *Handle) {
		Y := make([][]float64, len(X))
		for v := range Y {
			Y[v] = make([]float64, a.Rows)
		}
		h.MultiplyBatch(Y, X)
		for v := range X {
			for i := range wants[v] {
				if math.Abs(Y[v][i]-wants[v][i]) > 1e-9*(1+math.Abs(wants[v][i])) {
					t.Fatalf("%s: batch mismatch vector %d row %d", h.Name(), v, i)
				}
			}
		}
	}
	h, err := Analyze(m, a, Options{}) // fused path
	if err != nil {
		t.Fatal(err)
	}
	check(h)
	b, err := AnalyzeBaseline("merge", PAndE, m, a) // fallback path
	if err != nil {
		t.Fatal(err)
	}
	check(b)
	if h.Rows() != a.Rows || h.Cols() != a.Cols || h.Matrix() != a {
		t.Fatal("handle accessors")
	}
}

func TestMachineLookups(t *testing.T) {
	if len(Machines()) != 4 {
		t.Fatal("machines")
	}
	if _, ok := MachineByName("i9-13900KF"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := MachineByName("pentium-2"); ok {
		t.Fatal("lookup invented a machine")
	}
	for _, m := range []*Machine{IntelI912900KF(), IntelI913900KF(), AMDRyzen97950X3D(), AMDRyzen97950X()} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMatrixMarketRoundTripViaFacade(t *testing.T) {
	a := FromDense([][]float64{{1, 0, 2}, {0, 3, 0}}, 0)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("round trip mismatch")
	}
	if _, err := ReadMatrixMarketFile("/nonexistent.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestNewCSRFacade(t *testing.T) {
	a, err := NewCSR(2, 2, []int{0, 1, 2}, []int{0, 1}, []float64{1, 2})
	if err != nil || a.NNZ() != 2 {
		t.Fatalf("NewCSR: %v %v", a, err)
	}
	if _, err := NewCSR(2, 2, []int{0, 3, 2}, []int{0, 1}, []float64{1, 2}); err == nil {
		t.Fatal("invalid CSR accepted")
	}
}

func TestTripletsFacade(t *testing.T) {
	c := &Triplets{Rows: 2, Cols: 2}
	c.Add(0, 1, 5)
	c.Add(1, 0, 6)
	a := c.ToCSR()
	if a.NNZ() != 2 {
		t.Fatal("triplets conversion")
	}
}

func TestProportions(t *testing.T) {
	m := AMDRyzen97950X3D()
	if p := DefaultProportion(m); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("AMD default proportion %v", p)
	}
	// A ~60MB-footprint matrix leans on the V-Cache CCD.
	big := Representative("shipsec1", 2)
	if p := ProportionFor(m, big); p <= 0.5 {
		t.Fatalf("V-Cache proportion %v, want > 0.5", p)
	}
}

func TestRepresentativeNamesFacade(t *testing.T) {
	names := RepresentativeNames()
	if len(names) != 22 {
		t.Fatal("roster")
	}
	found := false
	for _, n := range names {
		if n == "webbase-1M" {
			found = true
		}
	}
	if !found {
		t.Fatal("webbase-1M missing")
	}
}

func mustPanicWith(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want message containing %q)", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	f()
}

func TestMultiplyValidatesLengths(t *testing.T) {
	m := IntelI912900KF()
	a := Representative("dawson5", 64)
	h, err := Analyze(m, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, a.Rows)
	x := make([]float64, a.Cols)
	mustPanicWith(t, "want Rows()", func() { h.Multiply(make([]float64, a.Rows+1), x) })
	mustPanicWith(t, "want Cols()", func() { h.Multiply(y, make([]float64, a.Cols-1)) })
	mustPanicWith(t, "output vectors", func() {
		h.MultiplyBatch([][]float64{y}, [][]float64{x, x})
	})
	mustPanicWith(t, "x[1]", func() {
		h.MultiplyBatch([][]float64{y, make([]float64, a.Rows)}, [][]float64{x, make([]float64, a.Cols+2)})
	})
	mustPanicWith(t, "y[0]", func() {
		h.MultiplyBatch([][]float64{make([]float64, 1)}, [][]float64{x})
	})
}

func TestHandleStatsCountsUsage(t *testing.T) {
	m := IntelI912900KF()
	a := Representative("rma10", 64)
	h, err := Analyze(m, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, a.Rows)
	x := make([]float64, a.Cols)
	h.Multiply(y, x)
	h.Multiply(y, x)
	h.MultiplyBatch([][]float64{y, make([]float64, a.Rows), make([]float64, a.Rows)},
		[][]float64{x, x, x})
	s := h.Stats()
	if s.Algorithm != h.Name() || s.Rows != a.Rows || s.Cols != a.Cols || s.NNZ != a.NNZ() {
		t.Fatalf("shape stats: %+v", s)
	}
	if s.Cores <= 0 {
		t.Fatalf("cores: %+v", s)
	}
	if s.Multiplies != 2 || s.BatchMultiplies != 1 || s.BatchVectors != 3 {
		t.Fatalf("usage stats: %+v", s)
	}
}

// TestMultiplyZeroAllocsWhenTelemetryDisabled is the overhead guard behind
// the telemetry design: with collection off (the default), the steady-state
// Multiply hot path must not allocate at all — scratch buffers live on the
// Prepared, Parallel dispatches to a persistent worker pool, and every
// counter gates on one atomic load.
func TestMultiplyZeroAllocsWhenTelemetryDisabled(t *testing.T) {
	if TelemetryEnabled() {
		t.Fatal("telemetry unexpectedly enabled at test start")
	}
	m := IntelI912900KF()
	a := Representative("rma10", 32)
	h, err := Analyze(m, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, a.Rows)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	h.Multiply(y, x) // warm the scratch and the worker pool
	if n := testing.AllocsPerRun(100, func() { h.Multiply(y, x) }); n != 0 {
		t.Fatalf("Multiply allocates %v times per op with telemetry disabled, want 0", n)
	}
}

// TestMultiplyBatchZeroAllocsWhenTelemetryDisabled extends the overhead
// guard to the fused batch path: once the pooled workspace has grown to
// the batch size, steady-state MultiplyBatch must not allocate — for any
// vector count, including ones below the warmed capacity.
func TestMultiplyBatchZeroAllocsWhenTelemetryDisabled(t *testing.T) {
	if TelemetryEnabled() {
		t.Fatal("telemetry unexpectedly enabled at test start")
	}
	m := IntelI912900KF()
	a := Representative("rma10", 32)
	h, err := Analyze(m, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const maxNV = 11
	X := make([][]float64, maxNV)
	Y := make([][]float64, maxNV)
	for v := range X {
		X[v] = make([]float64, a.Cols)
		for i := range X[v] {
			X[v][i] = 1 + float64((i+v)%7)/7
		}
		Y[v] = make([]float64, a.Rows)
	}
	h.MultiplyBatch(Y, X) // warm the batch scratch to maxNV capacity
	for _, nv := range []int{maxNV, 8, 3, 1} {
		nv := nv
		if n := testing.AllocsPerRun(100, func() { h.MultiplyBatch(Y[:nv], X[:nv]) }); n != 0 {
			t.Fatalf("MultiplyBatch nv=%d allocates %v times per op with telemetry disabled, want 0", nv, n)
		}
	}
}

// TestRepartitionRequiresHASpMV: baseline algorithms have no two-level
// partition to move, so Repartition must refuse them with
// ErrNotAdaptive, while a HASpMV handle accepts the plan.
func TestRepartitionRequiresHASpMV(t *testing.T) {
	m := IntelI912900KF()
	a := Representative("rma10", 32)
	for _, name := range []string{"csr", "csr-nnz", "mkl", "aocl", "csr5", "merge"} {
		t.Run(name, func(t *testing.T) {
			h, err := AnalyzeBaseline(name, PAndE, m, a)
			if err != nil {
				t.Fatal(err)
			}
			var notAdaptive *ErrNotAdaptive
			if err := h.Repartition(RepartitionPlan{PProportion: 0.5}); !errors.As(err, &notAdaptive) {
				t.Fatalf("Repartition on %s: got %v, want ErrNotAdaptive", name, err)
			}
			if notAdaptive.Algorithm != h.Name() {
				t.Fatalf("ErrNotAdaptive names %q, handle is %q", notAdaptive.Algorithm, h.Name())
			}
		})
	}
	t.Run("haspmv", func(t *testing.T) {
		ha, err := Analyze(m, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ha.Repartition(RepartitionPlan{PProportion: 0.4}); err != nil {
			t.Fatalf("Repartition on HASpMV: %v", err)
		}
	})
}

// TestMultiplyRepeatedCallsBitIdentical: a handle's partition is fixed
// between Repartition calls, so repeated Multiply and MultiplyBatch
// calls on one x return the first call's bits every time.
func TestMultiplyRepeatedCallsBitIdentical(t *testing.T) {
	m := IntelI912900KF()
	a := Representative("webbase-1M", 256)
	h, err := Analyze(m, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%9)/9
	}
	first := make([]float64, a.Rows)
	h.Multiply(first, x)
	same := func(what string, y []float64) {
		t.Helper()
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(first[i]) {
				t.Fatalf("%s: y[%d] = %x, first call %x", what, i, math.Float64bits(y[i]), math.Float64bits(first[i]))
			}
		}
	}
	y := make([]float64, a.Rows)
	for call := 0; call < 50; call++ {
		h.Multiply(y, x)
		same("Multiply", y)
	}
	Y := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows), make([]float64, a.Rows)}
	h.MultiplyBatch(Y, [][]float64{x, x, x})
	for v := range Y {
		same("MultiplyBatch", Y[v])
	}
}

func TestTelemetryFacadeRoundTrip(t *testing.T) {
	EnableTelemetry()
	defer DisableTelemetry()
	if !TelemetryEnabled() {
		t.Fatal("EnableTelemetry did not enable")
	}
	m := IntelI912900KF()
	a := Representative("rma10", 64)
	h, err := Analyze(m, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, a.Rows)
	x := make([]float64, a.Cols)
	h.Multiply(y, x)

	s := TelemetrySnapshot()
	if !s.Enabled || len(s.Cores) == 0 || len(s.Partitions) == 0 {
		t.Fatalf("snapshot after instrumented run: enabled=%v cores=%d partitions=%d",
			s.Enabled, len(s.Cores), len(s.Partitions))
	}

	var trace bytes.Buffer
	if err := WriteTelemetryTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace.Bytes()) {
		t.Fatal("trace is not valid JSON")
	}

	var prom bytes.Buffer
	if err := WriteTelemetryMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "haspmv_enabled 1") {
		t.Fatalf("prometheus body missing haspmv_enabled:\n%.400s", prom.String())
	}

	srv, err := ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() == "" {
		t.Fatal("server has no address")
	}
	srv.Close()
}

func TestOptionsVariantsThroughFacade(t *testing.T) {
	m := IntelI913900KF()
	a := Representative("cop20k_A", 64)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 0.25 * float64(i%5)
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	for _, opts := range []Options{
		{Metric: NNZCost},
		{Metric: RowCost},
		{Config: POnly},
		{Config: EOnly},
		{DisableReorder: true},
		{OneLevel: true},
		{PProportion: 0.66, Base: 40},
	} {
		h, err := Analyze(m, a, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		y := make([]float64, a.Rows)
		h.Multiply(y, x)
		for i := range want {
			if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%+v: wrong result at %d", opts, i)
			}
		}
	}
}

// Analyze refuses a matrix past the 32-bit size limit with an error
// instead of preparing it: 2^31 columns with three nonzeros.
func TestAnalyzeRefusesPast32BitColumns(t *testing.T) {
	n := int64(math.MaxInt32)
	cols := int(n + 1) // wraps negative where int is 32 bits, which Analyze refuses too
	a := &Matrix{Rows: 2, Cols: cols, RowPtr: []int{0, 2, 3},
		ColIdx: []int{0, cols - 1, 5}, Val: []float64{1, 2, 3}}
	if _, err := Analyze(IntelI912900KF(), a, Options{}); err == nil {
		t.Fatal("Analyze accepted 2^31 columns")
	}
}
