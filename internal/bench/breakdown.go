package bench

import (
	"fmt"
	"io"

	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/telemetry"

	haspmvcore "haspmv/internal/core"
)

// BreakdownRow decomposes one core's modeled time for one method.
type BreakdownRow struct {
	Algorithm string
	Core      int
	Group     string
	Seconds   float64
	ComputeMs float64
	MemMs     float64
	// LevelBytes are the bytes served per level [L1, L2, L3, DRAM].
	LevelBytes [4]float64
	NNZ        int
	Rows       int
}

// Breakdown prices every method on one representative matrix and returns
// the per-core decomposition — the analysis view behind Figure 9,
// generalized to all methods and cost components.
func Breakdown(cfg Config, m *amp.Machine, matrix string) ([]BreakdownRow, error) {
	a := gen.Representative(matrix, cfg.RepScale)
	var rows []BreakdownRow
	for _, alg := range AlgorithmsFor(m) {
		r, err := simulate(m, cfg.Params, alg, a)
		if err != nil {
			return nil, err
		}
		for _, cc := range r.PerCore {
			g, _ := m.GroupOf(cc.Core)
			rows = append(rows, BreakdownRow{
				Algorithm:  alg.Name(),
				Core:       cc.Core,
				Group:      g.Name,
				Seconds:    cc.Seconds,
				ComputeMs:  1e3 * cc.ComputeSeconds,
				MemMs:      1e3 * cc.MemSeconds,
				LevelBytes: cc.LevelBytes,
				NNZ:        cc.NNZ,
				Rows:       cc.Rows,
			})
		}
	}
	return rows, nil
}

// PrintBreakdown renders the decomposition grouped by method.
func PrintBreakdown(w io.Writer, m *amp.Machine, matrix string, rows []BreakdownRow) {
	fmt.Fprintf(w, "\n# Per-core breakdown on %s, %s\n", matrix, m.Name)
	cur := ""
	tw := newTable(w)
	for _, r := range rows {
		if r.Algorithm != cur {
			if cur != "" {
				tw.Flush()
			}
			cur = r.Algorithm
			fmt.Fprintf(w, "\n## %s\n", cur)
			tw = newTable(w)
			fmt.Fprintln(tw, "core\tgroup\tnnz\trows\ttotal(ms)\tcompute(ms)\tmem(ms)\tL1(KB)\tL2(KB)\tL3(KB)\tDRAM(KB)")
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.Core, r.Group, r.NNZ, r.Rows, 1e3*r.Seconds, r.ComputeMs, r.MemMs,
			r.LevelBytes[0]/1024, r.LevelBytes[1]/1024, r.LevelBytes[2]/1024, r.LevelBytes[3]/1024)
	}
	tw.Flush()
}

// PhaseRow is one telemetry-sourced phase measurement for one matrix:
// where HASpMV's preprocessing and execution time actually went, from the
// instrumentation inside Prepare/Compute rather than ad-hoc time.Since
// wrappers (the Fig. 7-style preprocessing-overhead decomposition).
type PhaseRow struct {
	Matrix string
	NNZ    int
	Phase  string
	Millis float64
	Count  int64
}

// PhaseBreakdown prepares HASpMV for each named matrix under a scoped
// telemetry collector, runs one multiply, and returns the recorded phase
// timers in pipeline order (reorder → cost → partition L1/L2 → prepare →
// compute).
func PhaseBreakdown(cfg Config, m *amp.Machine, matrices []string) ([]PhaseRow, error) {
	var rows []PhaseRow
	for _, name := range matrices {
		a := gen.Representative(name, cfg.RepScale)
		c := telemetry.NewCollector()
		prev := telemetry.Activate(c)
		prep, err := haspmvcore.New(haspmvcore.Options{}).Prepare(m, a)
		if err == nil {
			x := make([]float64, a.Cols)
			for i := range x {
				x[i] = 1 + float64(i%7)/7
			}
			prep.Compute(make([]float64, a.Rows), x)
		}
		telemetry.Activate(prev)
		if err != nil {
			return nil, fmt.Errorf("phases on %s / %s: %w", m.Name, name, err)
		}
		for _, p := range telemetry.Phases() {
			sec, n := c.PhaseSeconds(p)
			if n == 0 {
				continue
			}
			rows = append(rows, PhaseRow{
				Matrix: name, NNZ: a.NNZ(),
				Phase: p.String(), Millis: 1e3 * sec, Count: n,
			})
		}
	}
	return rows, nil
}

// PrintPhases renders the phase-timer breakdown.
func PrintPhases(w io.Writer, m *amp.Machine, rows []PhaseRow) {
	fmt.Fprintf(w, "\n# HASpMV phase timers on %s (telemetry-sourced; prepare = reorder+cost+partition+bookkeeping)\n", m.Name)
	tw := newTable(w)
	fmt.Fprintln(tw, "matrix\tnnz\tphase\ttime(ms)\tcalls")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.4f\t%d\n", r.Matrix, r.NNZ, r.Phase, r.Millis, r.Count)
	}
	tw.Flush()
}

// TraceRun performs one fully instrumented HASpMV Prepare+Multiply on the
// active telemetry collector, guaranteeing the exported trace carries one
// span per simulated core and a partition record even when only simulator
// experiments ran. It errors when telemetry is disabled.
func TraceRun(cfg Config, m *amp.Machine, matrix string) error {
	if telemetry.Active() == nil {
		return fmt.Errorf("bench: TraceRun needs telemetry enabled")
	}
	a := gen.Representative(matrix, cfg.RepScale)
	prep, err := haspmvcore.New(haspmvcore.Options{}).Prepare(m, a)
	if err != nil {
		return fmt.Errorf("trace run on %s / %s: %w", m.Name, matrix, err)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	prep.Compute(make([]float64, a.Rows), x)
	return nil
}
