package bench

import (
	"fmt"
	"io"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
	"haspmv/internal/stats"

	"haspmv/internal/baselines/csr5"
	"haspmv/internal/baselines/mergespmv"
	"haspmv/internal/baselines/vendorlike"
	haspmvcore "haspmv/internal/core"
)

// ---------------------------------------------------------------- Figure 8

// Fig8Result is the corpus-wide comparison on one machine.
type Fig8Result struct {
	Machine string
	// Baselines holds one summary per competitor: the distribution of
	// t_baseline / t_HASpMV over the corpus (the paper's "average
	// speedup of 2.61x, up to 5.23x" numbers).
	Baselines map[string]stats.SpeedupSummary
	// Scatter records (nnz, GFlops) per algorithm for plotting.
	Scatter map[string][]Fig4Point
}

// Fig8 compares HASpMV against the vendor library, CSR5 and Merge-SpMV
// over the corpus on every machine.
func Fig8(cfg Config) ([]Fig8Result, error) {
	specs := cfg.corpus()
	out := make([]Fig8Result, len(cfg.Machines))
	speedups := make([]map[string][]float64, len(cfg.Machines))
	for mi, m := range cfg.Machines {
		out[mi] = Fig8Result{
			Machine:   m.Name,
			Baselines: map[string]stats.SpeedupSummary{},
			Scatter:   map[string][]Fig4Point{},
		}
		speedups[mi] = map[string][]float64{}
	}
	// Generate each matrix once; price it with every method on every
	// machine.
	for _, sp := range specs {
		a := sp.Generate()
		for mi, m := range cfg.Machines {
			algs := AlgorithmsFor(m)
			res := &out[mi]
			times := make([]float64, len(algs))
			for i, alg := range algs {
				r, err := simulate(m, cfg.Params, alg, a)
				if err != nil {
					return nil, err
				}
				times[i] = r.Seconds
				res.Scatter[alg.Name()] = append(res.Scatter[alg.Name()], Fig4Point{NNZ: a.NNZ(), GFlops: r.GFlops})
			}
			ha := times[0]
			if ha <= 0 {
				continue
			}
			for i := 1; i < len(algs); i++ {
				speedups[mi][algs[i].Name()] = append(speedups[mi][algs[i].Name()], times[i]/ha)
			}
		}
	}
	for mi := range out {
		for name, sp := range speedups[mi] {
			out[mi].Baselines[name] = stats.Summarize(sp)
		}
	}
	return out, nil
}

// PrintFig8 renders the speedup summaries.
func PrintFig8(w io.Writer, results []Fig8Result) {
	for _, r := range results {
		fmt.Fprintf(w, "\n# Figure 8 — HASpMV speedup over baselines, %s\n", r.Machine)
		tw := newTable(w)
		fmt.Fprintln(tw, "baseline\tavg\tgeomean\tmedian\tmax\tmin\twin-rate\tn")
		for name, s := range r.Baselines {
			fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%.2fx\t%.2fx\t%.2fx\t%.0f%%\t%d\n",
				name, s.Mean, s.GeoMean, s.Median, s.Max, s.Min, 100*s.WinRate, s.N)
		}
		tw.Flush()
	}
}

// ---------------------------------------------------------------- Figure 9

// Fig9Result holds per-core execution times of HASpMV under the three
// partitioning metrics on the rma10 matrix (i9-12900KF in the paper).
type Fig9Result struct {
	Machine string
	Matrix  string
	// PerCore maps metric name -> per-core seconds.
	PerCore map[string][]float64
	// Spread maps metric name -> (max-min)/max across cores.
	Spread map[string]float64
}

// Fig9 partitions rma10 by row, by nnz and by cache-line cost and reports
// the per-core times (the flat-bars experiment).
func Fig9(cfg Config) (Fig9Result, error) {
	m := cfg.Machines[0]
	for _, cand := range cfg.Machines {
		if cand.Name == "i9-12900KF" {
			m = cand
		}
	}
	// Figure 9 needs the x vector to outgrow L1 so that per-row cache
	// behaviour differentiates the metrics; scale 1/4 keeps rma10's x at
	// ~94KB while staying fast to simulate.
	const fig9Scale = 4
	a := gen.Representative("rma10", fig9Scale)
	res := Fig9Result{
		Machine: m.Name,
		Matrix:  fmt.Sprintf("rma10@1/%d", fig9Scale),
		PerCore: map[string][]float64{},
		Spread:  map[string]float64{},
	}
	for _, metric := range []haspmvcore.CostMetric{haspmvcore.RowCost, haspmvcore.NNZCost, haspmvcore.CacheLineCost} {
		alg := haspmvcore.New(haspmvcore.Options{Metric: metric})
		r, err := simulate(m, cfg.Params, alg, a)
		if err != nil {
			return res, err
		}
		times := make([]float64, len(r.PerCore))
		for i, cc := range r.PerCore {
			times[i] = cc.Seconds
		}
		res.PerCore[metric.String()] = times
		if mx := stats.Max(times); mx > 0 {
			res.Spread[metric.String()] = (mx - stats.Min(times)) / mx
		}
	}
	return res, nil
}

// PrintFig9 renders per-core times per metric.
func PrintFig9(w io.Writer, r Fig9Result) {
	fmt.Fprintf(w, "\n# Figure 9 — per-core time on %s, %s (ms)\n", r.Matrix, r.Machine)
	tw := newTable(w)
	fmt.Fprintln(tw, "core\tby-row\tby-nnz\tby-cacheline")
	row := r.PerCore["row"]
	nnz := r.PerCore["nnz"]
	cl := r.PerCore["cacheline"]
	for i := range cl {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n", i, 1e3*row[i], 1e3*nnz[i], 1e3*cl[i])
	}
	tw.Flush()
	fmt.Fprintf(w, "spread (max-min)/max: row %.2f, nnz %.2f, cacheline %.2f\n",
		r.Spread["row"], r.Spread["nnz"], r.Spread["cacheline"])
}

// ---------------------------------------------------------------- Figure 10

// Fig10Row is the preprocessing cost of every method on one matrix.
type Fig10Row struct {
	Matrix string
	NNZ    int
	// Millis maps method name -> wall-clock preprocessing milliseconds
	// (real host time of our implementations, as in the paper).
	Millis map[string]float64
}

// Fig10 measures Prepare() wall time of all five methods over the 22
// representative matrices.
func Fig10(cfg Config, m *amp.Machine) ([]Fig10Row, error) {
	vendor := vendorlike.New(vendorlike.MKL, amp.PAndE)
	if isAMD(m) {
		vendor = vendorlike.New(vendorlike.AOCL, amp.PAndE)
	}
	// Reference index mode and the serial walk: Figure 10 reproduces the
	// paper's preprocessing cost, and the paper's pipeline builds neither
	// a compressed stream nor segment descriptors (their cost shows up in
	// -exp phases instead).
	algs := []exec.Algorithm{
		haspmvcore.New(haspmvcore.Options{Index: haspmvcore.IndexReference, Exec: haspmvcore.ExecSerial}),
		vendor,
		csr5.New(amp.PAndE),
		mergespmv.New(amp.PAndE),
	}
	var rows []Fig10Row
	for _, ri := range gen.SortedRepresentativeByNNZ() {
		a := gen.Representative(ri.Name, cfg.RepScale)
		row := Fig10Row{Matrix: ri.Name, NNZ: a.NNZ(), Millis: map[string]float64{}}
		for _, alg := range algs {
			best := time.Duration(1 << 62)
			for trial := 0; trial < 3; trial++ {
				_, d, err := exec.TimePrepare(alg, m, a)
				if err != nil {
					return nil, err
				}
				if d < best {
					best = d
				}
			}
			row.Millis[alg.Name()] = float64(best.Microseconds()) / 1e3
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig10 renders the preprocessing table.
func PrintFig10(w io.Writer, m *amp.Machine, rows []Fig10Row) {
	fmt.Fprintf(w, "\n# Figure 10 — preprocessing time on %s (ms, best of 3)\n", m.Name)
	if len(rows) == 0 {
		return
	}
	var names []string
	for name := range rows[0].Millis {
		names = append(names, name)
	}
	tw := newTable(w)
	fmt.Fprint(tw, "matrix\tnnz")
	for _, n := range names {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d", r.Matrix, r.NNZ)
		for _, n := range names {
			fmt.Fprintf(tw, "\t%.3f", r.Millis[n])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// ---------------------------------------------------------------- Figure 11

// Fig11Row is the modeled GFlops of each method on one representative
// matrix and machine.
type Fig11Row struct {
	Machine string
	Matrix  string
	GFlops  map[string]float64
	// Winner is the fastest method's name.
	Winner string
}

// Fig11 runs the full method set over the 22 representative matrices on
// the Intel and the X3D machines (the three subplots of the figure).
func Fig11(cfg Config) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, m := range cfg.Machines {
		if m.Name == "7950X" {
			continue // the figure shows 12900KF, 13900KF and the X3D
		}
		algs := AlgorithmsFor(m)
		for _, ri := range gen.SortedRepresentativeByNNZ() {
			a := gen.Representative(ri.Name, cfg.RepScale)
			row := Fig11Row{Machine: m.Name, Matrix: ri.Name, GFlops: map[string]float64{}}
			best := 0.0
			for _, alg := range algs {
				r, err := simulate(m, cfg.Params, alg, a)
				if err != nil {
					return nil, err
				}
				row.GFlops[alg.Name()] = r.GFlops
				if r.GFlops > best {
					best = r.GFlops
					row.Winner = alg.Name()
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintFig11 renders the per-matrix comparison grouped by machine.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	cur := ""
	var tw = newTable(w)
	var names []string
	for _, r := range rows {
		if r.Machine != cur {
			if cur != "" {
				tw.Flush()
			}
			cur = r.Machine
			fmt.Fprintf(w, "\n# Figure 11 — representative matrices on %s (GFlops)\n", cur)
			tw = newTable(w)
			names = names[:0]
			for name := range r.GFlops {
				names = append(names, name)
			}
			fmt.Fprint(tw, "matrix")
			for _, n := range names {
				fmt.Fprintf(tw, "\t%s", n)
			}
			fmt.Fprintln(tw, "\twinner")
		}
		fmt.Fprintf(tw, "%s", r.Matrix)
		for _, n := range names {
			fmt.Fprintf(tw, "\t%.2f", r.GFlops[n])
		}
		fmt.Fprintf(tw, "\t%s\n", r.Winner)
	}
	tw.Flush()
}

// repMatrix generates one representative matrix honoring the configured
// scale; exposed for the root-level benchmarks.
func (c Config) RepMatrix(name string) *sparse.CSR {
	return gen.Representative(name, c.RepScale)
}
