package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// gappyMatrix builds a matrix whose populated rows are separated by runs
// of empty rows — the structure that stresses StartRow recomputation and
// the row-granular cost prefix after a repartition.
func gappyMatrix(t testing.TB) *sparse.CSR {
	t.Helper()
	c := &sparse.COO{Rows: 64, Cols: 48}
	for i := 0; i < 64; i += 5 { // rows 0, 5, 10, ... populated; the rest empty
		for k := 0; k < 1+i%7; k++ {
			c.Add(i, (i*3+k*11)%48, float64(k+1)/3)
		}
	}
	return c.ToCSR()
}

// liveX is the x vector the repartition checks multiply by.
func liveX(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%5)/4
	}
	return x
}

// checkLive asserts the live partition still satisfies every structural
// invariant and that Compute against it matches the naive reference.
func checkLive(t *testing.T, a *sparse.CSR, hp *Prepared) {
	t.Helper()
	if err := checkRegions(hp.h, hp.Regions()); err != nil {
		t.Fatalf("checkRegions after repartition: %v", err)
	}
	if err := exec.CheckAssignments(a, hp.Assignments()); err != nil {
		t.Fatalf("assignment coverage after repartition: %v", err)
	}
	x := liveX(a.Cols)
	y := make([]float64, a.Rows)
	hp.Compute(y, x)
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	for i := range y {
		if diff := math.Abs(y[i] - want[i]); diff > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %v, reference %v", i, y[i], want[i])
		}
	}
}

// checkReferenceBits asserts that a weightless repartition cuts exactly
// the regions a fresh Prepare at the same proportion cuts, and that the
// product equals the []int reference prepared there bit for bit —
// a boundary move must not change the summation order a Prepare would
// have chosen.
func checkReferenceBits(t *testing.T, a *sparse.CSR, hp *Prepared, opts Options) {
	t.Helper()
	ref := referencePrepared(t, hp, a, opts)
	got, want := hp.Regions(), ref.Regions()
	if len(got) != len(want) {
		t.Fatalf("repartition cut %d regions, Prepare at %v cuts %d", len(got), hp.Plan().PProportion, len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Core != w.Core || g.Lo != w.Lo || g.Hi != w.Hi || g.StartRow != w.StartRow {
			t.Fatalf("region %d after repartition to %v: %+v, Prepare cuts %+v", i, hp.Plan().PProportion, g, w)
		}
	}
	x := liveX(a.Cols)
	y := make([]float64, a.Rows)
	yRef := make([]float64, a.Rows)
	hp.Compute(y, x)
	ref.Compute(yRef, x)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(yRef[i]) {
			t.Fatalf("after repartition to %v: y[%d] = %x, reference %x", hp.Plan().PProportion, i, math.Float64bits(y[i]), math.Float64bits(yRef[i]))
		}
	}
}

// TestRepartitionPropertyRandomPlans: for random proportions and random
// per-core weights, over matrices including one dominated by empty rows
// and over the option ablations, Repartition must always succeed, always
// produce a partition that passes checkRegions, and never change the
// computed product; a weightless plan must also reproduce the reference
// prepared at its proportion bit for bit.
func TestRepartitionPropertyRandomPlans(t *testing.T) {
	m := amp.IntelI912900KF()
	mats := map[string]*sparse.CSR{
		"rma10":      gen.Representative("rma10", 64),
		"webbase":    gen.Representative("webbase-1M", 512),
		"empty-rows": gappyMatrix(t),
	}
	optsList := []Options{
		{}, {OneLevel: true}, {DisableReorder: true}, {Metric: NNZCost}, {Metric: RowCost},
		{Config: amp.POnly}, {Index: IndexReference}, {Exec: ExecSerial},
	}
	r := rand.New(rand.NewSource(42))
	for name, a := range mats {
		for _, opts := range optsList {
			prep, err := New(opts).Prepare(m, a)
			if err != nil {
				t.Fatalf("%s: Prepare: %v", name, err)
			}
			hp := prep.(*Prepared)
			n := len(hp.Regions())
			for trial := 0; trial < 20; trial++ {
				plan := Plan{PProportion: 0.02 + 0.96*r.Float64()}
				if trial%2 == 1 {
					plan.Weights = make([]float64, n)
					for i := range plan.Weights {
						plan.Weights[i] = 0.1 + 4*r.Float64()
					}
				}
				if err := hp.Repartition(plan); err != nil {
					t.Fatalf("%s opts %+v trial %d: Repartition(%+v): %v",
						name, opts, trial, plan, err)
				}
				checkLive(t, a, hp)
				if plan.Weights == nil {
					checkReferenceBits(t, a, hp, opts)
				}
			}
		}
	}
}

// TestRepartitionRejectsBadPlans: invalid plans must fail loudly and
// leave the live partition (and the repartition counter) untouched.
func TestRepartitionRejectsBadPlans(t *testing.T) {
	m := amp.IntelI912900KF()
	a := gen.Representative("rma10", 64)
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	hp := prep.(*Prepared)
	if !hp.grouped() {
		t.Fatal("expected a two-group instance on i9-12900KF")
	}
	n := len(hp.Regions())

	bad := []Plan{
		{PProportion: 0},    // outside (0,1)
		{PProportion: 1},    //
		{PProportion: -0.2}, //
		{PProportion: 1.5},  //
		{PProportion: 0.5, Weights: make([]float64, n+1)},    // wrong length
		{PProportion: 0.5, Weights: make([]float64, n)},      // all-zero weights
		{PProportion: 0.5, Weights: weightAt(n, 0, -1)},      // negative weight
		{PProportion: 0.5, Weights: zeroGroup(n, hp.pCount)}, // P-group sums to 0
		{PProportion: 0.5, Weights: zeroTail(n, hp.pCount)},  // E-group sums to 0
		// Non-finite plans: a NaN or +Inf share would leave one non-empty region.
		{PProportion: math.NaN()},
		{PProportion: 0.5, Weights: weightAt(n, 0, math.NaN())},
		{PProportion: 0.5, Weights: weightAt(n, 0, math.Inf(1))},
		{PProportion: 0.5, Weights: weightAt(n, 0, math.Inf(-1))},
		// Finite weights whose P-group sum overflows to +Inf.
		{PProportion: 0.5, Weights: weightAt(n, 0, math.MaxFloat64, math.MaxFloat64)},
	}
	before := hp.Regions()
	reps := hp.Repartitions()
	for i, plan := range bad {
		if err := hp.Repartition(plan); err == nil {
			t.Fatalf("bad plan %d (%+v): expected an error", i, plan)
		}
		after := hp.Regions()
		if len(after) != len(before) {
			t.Fatalf("bad plan %d changed the region count", i)
		}
		for j := range after {
			if after[j] != before[j] {
				t.Fatalf("bad plan %d moved region %d: %+v -> %+v", i, j, before[j], after[j])
			}
		}
	}
	if got := hp.Repartitions(); got != reps {
		t.Fatalf("failed repartitions bumped the counter: %d -> %d", reps, got)
	}
	// A valid plan still works after the failures.
	if err := hp.Repartition(Plan{PProportion: 0.6}); err != nil {
		t.Fatalf("valid plan after failures: %v", err)
	}
	checkLive(t, a, hp)
}

// weightAt returns unit weights with slots i, i+1, ... set to vs.
func weightAt(n, i int, vs ...float64) []float64 {
	w := make([]float64, n)
	for j := range w {
		w[j] = 1
	}
	copy(w[i:], vs)
	return w
}

func zeroGroup(n, pCount int) []float64 {
	w := make([]float64, n)
	for j := pCount; j < n; j++ {
		w[j] = 1
	}
	return w
}

func zeroTail(n, pCount int) []float64 {
	w := make([]float64, n)
	for j := 0; j < pCount; j++ {
		w[j] = 1
	}
	return w
}

// TestRepartitionOneLevelIgnoresProportion: on an ungrouped instance the
// level-1 share is meaningless, so any proportion — including ones a
// grouped instance would reject — must be accepted.
func TestRepartitionOneLevelIgnoresProportion(t *testing.T) {
	m := amp.IntelI912900KF()
	a := gen.Representative("rma10", 64)
	prep, err := New(Options{OneLevel: true}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	hp := prep.(*Prepared)
	for _, prop := range []float64{0, -3, 1, 7, math.NaN()} {
		if err := hp.Repartition(Plan{PProportion: prop}); err != nil {
			t.Fatalf("OneLevel Repartition(prop=%v): %v", prop, err)
		}
	}
	checkLive(t, a, hp)
}

// TestRepartitionRoundTripRestoresBits: moving the partition away and
// back to the proportion Prepare chose restores its regions and its
// product bit for bit — a static partition gives one answer per x.
func TestRepartitionRoundTripRestoresBits(t *testing.T) {
	m := amp.IntelI912900KF()
	a := gen.Representative("webbase-1M", 512)
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	hp := prep.(*Prepared)
	orig := hp.Plan()
	before := hp.Regions()
	x := liveX(a.Cols)
	first := make([]float64, a.Rows)
	hp.Compute(first, x)

	for _, plan := range []Plan{{PProportion: 0.25}, {PProportion: 0.5, Weights: weightAt(len(before), 1, 3)}, orig} {
		if err := hp.Repartition(plan); err != nil {
			t.Fatalf("Repartition(%+v): %v", plan, err)
		}
	}
	after := hp.Regions()
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("region %d after the round trip: %+v, Prepare cut %+v", i, after[i], before[i])
		}
	}
	y := make([]float64, a.Rows)
	hp.Compute(y, x)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(first[i]) {
			t.Fatalf("y[%d] = %x after the round trip, first call %x", i, math.Float64bits(y[i]), math.Float64bits(first[i]))
		}
	}
}

// TestRepartitionPlanReportsInstalledPlan: Plan reports Prepare's
// proportion until the first Repartition, then the accepted plan with a
// private copy of its weights; Repartitions counts accepted plans only.
func TestRepartitionPlanReportsInstalledPlan(t *testing.T) {
	m := amp.IntelI912900KF()
	a := gen.Representative("rma10", 64)
	prep, err := New(Options{PProportion: 0.65}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	hp := prep.(*Prepared)
	if pl := hp.Plan(); pl.PProportion != 0.65 || pl.Weights != nil {
		t.Fatalf("Plan before any repartition = %+v, want {0.65 nil}", pl)
	}
	if got := hp.Repartitions(); got != 0 {
		t.Fatalf("Repartitions before any move = %d, want 0", got)
	}
	w := weightAt(len(hp.Regions()), 0, 2)
	if err := hp.Repartition(Plan{PProportion: 0.4, Weights: w}); err != nil {
		t.Fatal(err)
	}
	w[0] = 99 // the caller's slice is not the installed plan
	pl := hp.Plan()
	if pl.PProportion != 0.4 || len(pl.Weights) != len(w) || pl.Weights[0] != 2 {
		t.Fatalf("Plan after weighted repartition = %+v, want proportion 0.4 with weight[0] = 2", pl)
	}
	if err := hp.Repartition(Plan{PProportion: 2}); err == nil {
		t.Fatal("proportion 2 accepted")
	}
	if err := hp.Repartition(Plan{PProportion: 0.7}); err != nil {
		t.Fatal(err)
	}
	if pl := hp.Plan(); pl.PProportion != 0.7 || pl.Weights != nil {
		t.Fatalf("Plan after weightless repartition = %+v, want {0.7 nil}", pl)
	}
	if got := hp.Repartitions(); got != 2 {
		t.Fatalf("Repartitions = %d after two accepted plans and one rejected, want 2", got)
	}
}

// TestRepartitionConcurrentWithCompute hammers boundary moves under
// concurrent multiplies: every Compute must see one consistent snapshot
// (this is the race-detector coverage for the atomic swap discipline).
func TestRepartitionConcurrentWithCompute(t *testing.T) {
	m := amp.IntelI912900KF()
	a := gen.Representative("rma10", 64)
	prep, err := New(Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	hp := prep.(*Prepared)

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)

	const workers, iters = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, a.Rows)
			for it := 0; it < iters; it++ {
				hp.Compute(y, x)
				for i := range y {
					if diff := math.Abs(y[i] - want[i]); diff > 1e-9*(1+math.Abs(want[i])) {
						errs <- fmt.Errorf("concurrent Compute: y[%d] = %v, reference %v", i, y[i], want[i])
						return
					}
				}
			}
		}()
	}
	props := []float64{0.3, 0.5, 0.7, 0.9}
	for it := 0; it < 200; it++ {
		if err := hp.Repartition(Plan{PProportion: props[it%len(props)]}); err != nil {
			t.Fatalf("Repartition under load: %v", err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
