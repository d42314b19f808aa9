package core

import (
	"math/rand"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/kernel"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

func tracedFixture(t *testing.T, name string) (*Prepared, []float64, []float64) {
	t.Helper()
	a := algtest.Matrix(name)
	prep, err := New(Options{}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	r := rand.New(rand.NewSource(42))
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return p, make([]float64, a.Rows), x
}

// ComputeTraced must produce bitwise the vector Compute produces and a
// breakdown whose stages and metadata are internally consistent.
func TestComputeTracedMatchesComputeAndFillsBreakdown(t *testing.T) {
	p, y, x := tracedFixture(t, "powerlaw")
	want := make([]float64, len(y))
	p.Compute(want, x)

	var bd tracing.ComputeBreakdown
	p.ComputeTraced(y, x, &bd)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v (bitwise)", i, y[i], want[i])
		}
	}
	if bd.KernelNs <= 0 {
		t.Fatalf("KernelNs = %d, want > 0", bd.KernelNs)
	}
	if bd.MergeNs < 0 {
		t.Fatalf("MergeNs = %d, want >= 0", bd.MergeNs)
	}
	if bd.Cores != len(p.Regions()) {
		t.Fatalf("Cores = %d, want %d regions", bd.Cores, len(p.Regions()))
	}
	if bd.MaxCoreNs <= 0 || bd.MaxCoreNs > bd.KernelNs+bd.MergeNs+int64(1e9) {
		t.Fatalf("MaxCoreNs = %d out of range (kernel %d)", bd.MaxCoreNs, bd.KernelNs)
	}
	var nnz int64
	for _, n := range bd.NNZByFormat {
		nnz += n
	}
	if nnz != int64(p.mat.NNZ()) {
		t.Fatalf("NNZByFormat sums to %d, want nnz %d", nnz, p.mat.NNZ())
	}
	if bd.Bytes != p.TrafficBytes() {
		t.Fatalf("Bytes = %d, want TrafficBytes %d", bd.Bytes, p.TrafficBytes())
	}
	if bd.Bytes <= int64(p.mat.NNZ())*8 {
		t.Fatalf("Bytes = %d, want more than the value stream alone (%d)", bd.Bytes, p.mat.NNZ()*8)
	}
}

func TestComputeBatchTracedMatchesBatch(t *testing.T) {
	p, _, x := tracedFixture(t, "hub-row")
	const nv = 5
	X := make([][]float64, nv)
	Y := make([][]float64, nv)
	want := make([][]float64, nv)
	for v := range X {
		X[v] = make([]float64, len(x))
		copy(X[v], x)
		X[v][v] += float64(v)
		Y[v] = make([]float64, p.mat.Rows)
		want[v] = make([]float64, p.mat.Rows)
	}
	p.ComputeBatch(want, X)

	var bd tracing.ComputeBreakdown
	p.ComputeBatchTraced(Y, X, &bd)
	for v := range Y {
		for i := range Y[v] {
			if Y[v][i] != want[v][i] {
				t.Fatalf("Y[%d][%d] = %v, want %v (bitwise)", v, i, Y[v][i], want[v][i])
			}
		}
	}
	if bd.KernelNs <= 0 || bd.Cores != len(p.Regions()) {
		t.Fatalf("breakdown %+v not filled", bd)
	}
	// The 5 vectors run as a packed 4-vector tile and one vector alone.
	if want := p.batchTrafficBytes(nv, kernel.MinBlock); bd.Bytes != want {
		t.Fatalf("Bytes = %d, want %d", bd.Bytes, want)
	}
	if bd.Bytes <= p.TrafficBytes() {
		t.Fatalf("batch Bytes = %d, want more than single-vector %d", bd.Bytes, p.TrafficBytes())
	}
}

// A traced batch prices its pack pass: one structure sweep per
// MaxBlock-wide tile, x and y once per vector, and each vector of a tile
// of width >= kernel.MinBlock read and written once more by the
// interleaving. A tile narrower than that (3 vectors, or the 1- and
// 3-vector remainders of 9 and 11) reads its x directly and packs
// nothing, and so do the single vectors that follow the 4-vector tile
// of a 5–7-vector remainder (7 and 15).
func TestComputeBatchTracedBytes(t *testing.T) {
	p, _, x := tracedFixture(t, "hub-row")
	rows, cols := int64(p.mat.Rows), int64(p.mat.Cols)
	st := p.structBytes()
	for _, tc := range []struct {
		nv            int
		sweeps, packs int64
	}{{1, 1, 0}, {3, 1, 0}, {4, 1, 4}, {7, 1, 4}, {8, 1, 8}, {9, 2, 8}, {11, 2, 8}, {12, 2, 12}, {15, 2, 12}} {
		X := make([][]float64, tc.nv)
		Y := make([][]float64, tc.nv)
		for v := range X {
			X[v] = x
			Y[v] = make([]float64, rows)
		}
		var bd tracing.ComputeBreakdown
		p.ComputeBatchTraced(Y, X, &bd)
		want := tc.sweeps*st + int64(tc.nv)*(rows+cols)*8 + tc.packs*2*cols*8
		if bd.Bytes != want {
			t.Fatalf("nv=%d: Bytes = %d, want %d", tc.nv, bd.Bytes, want)
		}
	}
}

// The tentpole's hard requirement: the traced hot paths allocate exactly
// as much as the untraced ones — nothing — with telemetry disabled, both
// directly and through the exec dispatch helpers.
func TestComputeTracedZeroAllocs(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry enabled by another test")
	}
	p, y, x := tracedFixture(t, "powerlaw")
	var bd tracing.ComputeBreakdown
	p.ComputeTraced(y, x, &bd) // warm scratch
	if n := testing.AllocsPerRun(100, func() {
		bd.Reset()
		p.ComputeTraced(y, x, &bd)
	}); n != 0 {
		t.Fatalf("ComputeTraced allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		bd.Reset()
		exec.ComputeTraced(p, y, x, &bd)
	}); n != 0 {
		t.Fatalf("exec.ComputeTraced allocates %.1f/op, want 0", n)
	}
}

func TestComputeBatchTracedZeroAllocs(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry enabled by another test")
	}
	p, _, x := tracedFixture(t, "powerlaw")
	const maxNV = 9
	X := make([][]float64, maxNV)
	Y := make([][]float64, maxNV)
	for v := range X {
		X[v] = x
		Y[v] = make([]float64, p.mat.Rows)
	}
	var bd tracing.ComputeBreakdown
	p.ComputeBatchTraced(Y, X, &bd) // warm scratch at the largest width
	for _, nv := range []int{maxNV, 4, 1} {
		if n := testing.AllocsPerRun(100, func() {
			bd.Reset()
			exec.ComputeBatchTraced(p, Y[:nv], X[:nv], &bd)
		}); n != 0 {
			t.Fatalf("nv=%d: exec.ComputeBatchTraced allocates %.1f/op, want 0", nv, n)
		}
	}
}

// The roofline gauges move when telemetry is on: a multiply stamps the
// effective bandwidth, Prepare the triad peak.
func TestEffectiveBandwidthGauges(t *testing.T) {
	prev := telemetry.Activate(telemetry.NewCollector())
	defer telemetry.Activate(prev)
	p, y, x := tracedFixture(t, "powerlaw")
	if p.TriadPeakMBps() <= 0 {
		t.Fatalf("TriadPeakMBps = %d, want > 0", p.TriadPeakMBps())
	}
	p.Compute(y, x)
	st := telemetry.Snapshot()
	if st.Gauges["core_triad_peak_mbps"] != p.TriadPeakMBps() {
		t.Fatalf("triad peak gauge %d, want %d", st.Gauges["core_triad_peak_mbps"], p.TriadPeakMBps())
	}
	eff := st.Gauges["core_effective_bandwidth_mbps"]
	if eff <= 0 {
		t.Fatalf("effective bandwidth gauge %d, want > 0", eff)
	}
	if st.Gauges["core_roofline_pct"] != eff*100/p.TriadPeakMBps() {
		t.Fatalf("roofline pct gauge %d inconsistent with eff %d / peak %d",
			st.Gauges["core_roofline_pct"], eff, p.TriadPeakMBps())
	}
}

// exec's graceful degradation: a Prepared without the traced interfaces
// still yields a whole-call kernel attribution.
func TestExecTracedFallback(t *testing.T) {
	p, y, x := tracedFixture(t, "tall-rect")
	plain := struct{ exec.Prepared }{p} // hides the traced methods
	var bd tracing.ComputeBreakdown
	exec.ComputeTraced(plain, y, x, &bd)
	if bd.KernelNs <= 0 || bd.Cores != 0 {
		t.Fatalf("fallback breakdown %+v, want whole-call kernel time only", bd)
	}
	want := make([]float64, len(y))
	p.Compute(want, x)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("fallback y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	bd.Reset()
	Y, X := [][]float64{y}, [][]float64{x}
	exec.ComputeBatchTraced(plain, Y, X, &bd)
	if bd.KernelNs <= 0 {
		t.Fatalf("batch fallback breakdown %+v", bd)
	}
}

// Compute and ComputeBatch run one path but keep their own names in the
// trace: Compute records one "core" span per non-empty region plus the
// compute phase and counter, ComputeBatch "batch-core" spans plus the
// batch phase and counters.
func TestComputeSpanNames(t *testing.T) {
	p, y, x := tracedFixture(t, "hub-row")
	nonEmpty := 0
	for _, r := range p.Regions() {
		if r.Lo < r.Hi {
			nonEmpty++
		}
	}
	check := func(call, span string, phase telemetry.Phase, counters map[string]int64, run func()) {
		t.Helper()
		c := telemetry.NewCollector()
		prev := telemetry.Activate(c)
		before := telemetry.Snapshot().Counters
		run()
		after := telemetry.Snapshot().Counters
		telemetry.Activate(prev)
		for _, name := range []string{"core_computes", "core_batch_computes", "core_batch_vectors"} {
			if d := after[name] - before[name]; d != counters[name] {
				t.Fatalf("%s moved counter %s by %d, want %d", call, name, d, counters[name])
			}
		}
		spans := c.Spans()
		if len(spans) != nonEmpty {
			t.Fatalf("%s recorded %d spans, want %d (one per non-empty region)", call, len(spans), nonEmpty)
		}
		for _, s := range spans {
			if s.Name != span {
				t.Fatalf("%s recorded span %q, want %q", call, s.Name, span)
			}
		}
		for _, ph := range []telemetry.Phase{telemetry.PhaseCompute, telemetry.PhaseBatch} {
			want := int64(0)
			if ph == phase {
				want = 1
			}
			if _, n := c.PhaseSeconds(ph); n != want {
				t.Fatalf("%s recorded phase %v %d times, want %d", call, ph, n, want)
			}
		}
	}
	check("Compute", "core", telemetry.PhaseCompute,
		map[string]int64{"core_computes": 1},
		func() { p.Compute(y, x) })
	check("ComputeBatch", "batch-core", telemetry.PhaseBatch,
		map[string]int64{"core_batch_computes": 1, "core_batch_vectors": 2},
		func() { p.ComputeBatch([][]float64{y, make([]float64, len(y))}, [][]float64{x, x}) })
}
