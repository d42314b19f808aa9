package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"haspmv"
	"haspmv/internal/core"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
	"haspmv/internal/store"
)

// batchWidth is the MultiplyBatch width of a spmv-mix round: one full
// register block of the fused kernels.
const batchWidth = 8

// mixClass is one matrix of the spmv-mix round.
type mixClass struct {
	name string
	a    *sparse.CSR
	// xs are the seeded x vectors; refs[p] is the []int+f64 reference
	// A*xs[p] on the handle's partition.
	xs, refs [][]float64
	y        []float64
	h        *haspmv.Handle
	// opts are the handle's resolved options (proportion and base).
	opts core.Options
	// multNs/multN accumulate the traced Multiply wrapper.
	multNs int64
	multN  int
}

// spmvMix is the library-path workload: one caller runs rounds of one
// Multiply on each of four matrix classes plus one 8-vector
// MultiplyBatch on webbase.
type spmvMix struct {
	cfg     config
	m       *haspmv.Machine
	classes []*mixClass
	traced  bool
	batchX  [][]float64
	batchY  [][]float64
	batchNs int64
	batchN  int
	// partitionsMatch records whether each reference partition equals
	// the handle's (the pinned proportion and base must reproduce it).
	partitionsMatch bool
}

// mixMatrices generates the four classes from seed: a 9-diagonal stencil
// with 0.2% defect rows (diagonal-run path), a rank-law zipf matrix
// (segmented-sum path), a 0/1 random graph (palette path) and
// webbase-1M@2 (u16/u32 path). Test-sized runs divide every size by 64.
func mixMatrices(seed int64, small bool) []*mixClass {
	div := 1
	wbScale := 2
	if small {
		div, wbScale = 64, 128
	}
	stencil := gen.StencilSpec{
		Name: "stencil", Rows: 500_000 / div, Cols: 500_000 / div,
		Diagonals: 9, NoiseFrac: 0.002, Seed: seed*4 + 1,
	}.Generate()
	zipf := gen.ZipfSpec{
		Name: "zipf", Rows: (1 << 20) / div, Cols: (1 << 20) / div,
		TargetNNZ: 3_000_000 / div, Seed: seed*4 + 2,
	}.Generate()
	graph := gen.Spec{
		Name: "graph01", Rows: 200_000 / div, Cols: 200_000 / div,
		Dist:  gen.NormalLen{Mean: 16, Std: 4, Min: 1, Max: 32},
		Place: gen.Random, Seed: seed*4 + 3,
	}.Generate()
	for k := range graph.Val {
		graph.Val[k] = 1
	}
	webbase := gen.Representative("webbase-1M", wbScale)
	return []*mixClass{
		{name: "stencil", a: stencil},
		{name: "zipf", a: zipf},
		{name: "graph01", a: graph},
		{name: "webbase", a: webbase},
	}
}

func newSpmvMix(cfg config) (*spmvMix, error) {
	w := &spmvMix{cfg: cfg, m: haspmv.IntelI912900KF(), classes: mixMatrices(cfg.seed, cfg.small), partitionsMatch: true}
	for ci, c := range w.classes {
		patterns := 2
		if c.name == "webbase" {
			patterns = batchWidth
		}
		rng := rand.New(rand.NewSource(cfg.seed*16 + int64(ci)))
		c.xs = make([][]float64, patterns)
		for p := range c.xs {
			c.xs[p] = seededVector(rng, c.a.Cols)
		}
		c.y = make([]float64, c.a.Rows)
		if err := w.buildReference(c); err != nil {
			return nil, fmt.Errorf("%s reference: %w", c.name, err)
		}
	}
	if cfg.corrupt {
		flipBit(w.classes[0].refs[0])
	}
	wb := w.classes[len(w.classes)-1]
	w.batchX = make([][]float64, batchWidth)
	w.batchY = make([][]float64, batchWidth)
	for v := range w.batchY {
		w.batchY[v] = make([]float64, wb.a.Rows)
	}
	return w, nil
}

// seededVector draws n values in [0.5, 1.5).
func seededVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + rng.Float64()
	}
	return x
}

// buildReference resolves the proportion and base a default Prepare picks
// for c, then prepares the []int+f64 serial reference pinned to them and
// computes refs. Both instances are dropped afterwards.
func (w *spmvMix) buildReference(c *mixClass) error {
	p, err := core.New(core.Options{}).Prepare(w.m, c.a)
	if err != nil {
		return err
	}
	hp := p.(*core.Prepared)
	c.opts = hp.Snapshot().Meta.Opts
	ref, err := core.New(core.Options{
		Index: core.IndexReference, Value: core.ValueReference, Exec: core.ExecSerial,
		PProportion: c.opts.PProportion, Base: c.opts.Base,
	}).Prepare(w.m, c.a)
	if err != nil {
		return err
	}
	if !sameRegions(hp.Regions(), ref.(*core.Prepared).Regions()) {
		w.partitionsMatch = false
	}
	c.refs = make([][]float64, len(c.xs))
	for k, x := range c.xs {
		c.refs[k] = make([]float64, c.a.Rows)
		ref.Compute(c.refs[k], x)
	}
	return nil
}

// sameRegions compares two partitions' per-core nnz ranges.
func sameRegions(a, b []core.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Core != b[i].Core || a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi {
			return false
		}
	}
	return true
}

func (w *spmvMix) clients() int { return 1 }

// setup is Analyze of the four matrices (generation is not counted).
func (w *spmvMix) setup(traced bool) (time.Duration, error) {
	w.traced = traced
	for _, c := range w.classes {
		c.h = nil
		c.multNs, c.multN = 0, 0
	}
	w.batchNs, w.batchN = 0, 0
	runtime.GC()
	t0 := time.Now()
	for _, c := range w.classes {
		h, err := haspmv.Analyze(w.m, c.a, haspmv.Options{})
		if err != nil {
			return 0, fmt.Errorf("analyze %s: %w", c.name, err)
		}
		c.h = h
	}
	return time.Since(t0), nil
}

func (w *spmvMix) op(_, i int, measured bool) (time.Duration, error) {
	timed := w.traced && measured
	t0 := time.Now()
	for _, c := range w.classes {
		x := c.xs[i%len(c.xs)]
		if timed {
			tc := time.Now()
			c.h.Multiply(c.y, x)
			c.multNs += int64(time.Since(tc))
			c.multN++
		} else {
			c.h.Multiply(c.y, x)
		}
	}
	wb := w.classes[len(w.classes)-1]
	for v := range w.batchX {
		w.batchX[v] = wb.xs[(i+v)%len(wb.xs)]
	}
	if timed {
		tb := time.Now()
		wb.h.MultiplyBatch(w.batchY, w.batchX)
		w.batchNs += int64(time.Since(tb))
		w.batchN++
	} else {
		wb.h.MultiplyBatch(w.batchY, w.batchX)
	}
	lat := time.Since(t0)
	for _, c := range w.classes {
		if k := firstDiff(c.y, c.refs[i%len(c.refs)]); k >= 0 {
			return lat, fmt.Errorf("%s: y[%d] differs from the reference", c.name, k)
		}
	}
	for v := range w.batchY {
		if k := firstDiff(w.batchY[v], wb.refs[(i+v)%len(wb.refs)]); k >= 0 {
			return lat, fmt.Errorf("webbase batch column %d: y[%d] differs from its single-vector reference", v, k)
		}
	}
	return lat, nil
}

// firstDiff returns the first index where a and b differ bit for bit, or
// -1 (a length mismatch reports index 0).
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// flipBit corrupts one reference value for the failure-accounting test.
func flipBit(ref []float64) {
	ref[0] = math.Float64frombits(math.Float64bits(ref[0]) ^ 1)
}

// formatPaths are the execution paths core.format_share reports, as
// shares of a class's nonzeros.
var formatPaths = []string{"dia", "segsum", "palette", "u16", "u32"}

func (w *spmvMix) layers(ms metrics) ([]string, error) {
	var problems []string
	if !w.partitionsMatch {
		problems = append(problems, "a reference partition differs from its handle's")
	}
	for _, c := range w.classes {
		t0 := time.Now()
		p, err := core.New(core.Options{}).Prepare(w.m, c.a)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", c.name, err)
		}
		ms.set("core.prepare_ms."+c.name, "ms", msSince(t0))
		hp := p.(*core.Prepared)
		nnz := float64(c.a.NNZ())
		is, vs := hp.IndexStats(), hp.ValueStats()
		ms.set("kernel.bytes_per_nnz."+c.name, "B", float64(is.StreamIndexBytes+vs.StreamValueBytes)/nnz)
		share := map[string]float64{
			"dia":    float64(is.NNZByFormat[core.IndexDia]),
			"segsum": float64(hp.SegSumNNZ()),
			"u16":    float64(is.NNZByFormat[core.Index16]),
			"u32":    float64(is.NNZByFormat[core.Index32]),
		}
		if vs.Format == core.ValPalette {
			share["palette"] = nnz
		}
		for _, f := range formatPaths {
			ms.set("core.format_share."+c.name+"."+f, "%", 100*share[f]/nnz)
		}
		if c.multN == 0 {
			return nil, fmt.Errorf("no traced multiplies of %s", c.name)
		}
		multMs := float64(c.multNs) / float64(c.multN) / 1e6
		ms.set("kernel.multiply_ms."+c.name, "ms", multMs)
		if w.cfg.triadGBs > 0 {
			gbps := float64(hp.TrafficBytes()) / (multMs / 1e3) / 1e9
			ms.set("kernel.roofline_pct."+c.name, "%", 100*gbps/w.cfg.triadGBs)
		}
		ms.set("costmodel.sim_gflops."+c.name, "GFlop/s", c.h.Simulate(nil).GFlops)
		if c.name == "webbase" {
			bad, err := w.storeRoundTrip(ms, c, hp)
			if err != nil {
				return nil, err
			}
			problems = append(problems, bad...)
		}
	}
	if w.batchN == 0 {
		return nil, fmt.Errorf("no traced batch multiplies")
	}
	ms.set("kernel.batch8_ms.webbase", "ms", float64(w.batchNs)/float64(w.batchN)/1e6)
	return problems, nil
}

// storeRoundTrip writes webbase's prepared state to the store, loads it
// back (verify-behind) and restores it, then checks the restored instance
// against the reference. The file lives under cfg.scratch and is removed
// afterwards.
func (w *spmvMix) storeRoundTrip(ms metrics, c *mixClass, hp *core.Prepared) ([]string, error) {
	if err := os.MkdirAll(w.cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(w.cfg.scratch, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "webbase.hps")
	t0 := time.Now()
	if err := store.Write(path, hp.Snapshot(), nil); err != nil {
		return nil, fmt.Errorf("store write: %w", err)
	}
	ms.set("store.write_ms.webbase", "ms", msSince(t0))
	t0 = time.Now()
	f, err := store.LoadAsync(path)
	if err != nil {
		return nil, fmt.Errorf("store load: %w", err)
	}
	defer f.Close()
	rp, err := core.RestorePrepared(w.m, f.Snap)
	if err != nil {
		return nil, fmt.Errorf("store restore: %w", err)
	}
	ms.set("store.restore_ms.webbase", "ms", msSince(t0))
	if err := f.Verified(); err != nil {
		return []string{"store payload verification: " + err.Error()}, nil
	}
	y := make([]float64, c.a.Rows)
	rp.Compute(y, c.xs[0])
	if k := firstDiff(y, c.refs[0]); k >= 0 {
		return []string{fmt.Sprintf("restored webbase y[%d] differs from the reference", k)}, nil
	}
	return nil, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func (w *spmvMix) teardown() {
	for _, c := range w.classes {
		c.h = nil
	}
}

func (w *spmvMix) info() map[string]any {
	out := map[string]any{"partitions_match_reference": w.partitionsMatch}
	for _, c := range w.classes {
		out[c.name] = map[string]any{
			"rows": c.a.Rows, "cols": c.a.Cols, "nnz": c.a.NNZ(),
			"proportion": c.opts.PProportion, "base": c.opts.Base,
		}
	}
	return out
}
