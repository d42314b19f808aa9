// Command haspmv-bench regenerates the paper's tables and figures on the
// AMP simulator. Every experiment of the evaluation section has an id:
//
//	haspmv-bench -exp table1          # platform specifications
//	haspmv-bench -exp table2          # the 22 representative matrices
//	haspmv-bench -exp fig3            # stream triad bandwidth sweep
//	haspmv-bench -exp fig4            # parallel SpMV, three core configs
//	haspmv-bench -exp fig5            # single P- vs E-core correlation
//	haspmv-bench -exp fig8            # HASpMV vs oneMKL/AOCL/CSR5/Merge
//	haspmv-bench -exp fig9            # per-core balance on rma10
//	haspmv-bench -exp fig10           # preprocessing cost
//	haspmv-bench -exp fig11           # the 22 matrices, all methods
//	haspmv-bench -exp energy          # extension: modeled energy per SpMV
//	haspmv-bench -exp phases          # telemetry phase timers (Fig. 7 style)
//	haspmv-bench -exp selfcheck       # verify every method on the battery
//	haspmv-bench -exp breakdown       # per-core time/traffic decomposition
//	haspmv-bench -exp adapt           # online repartitioning recovery from miscalibration
//	haspmv-bench -exp all             # table1 through phases, in paper order
//
// Scale knobs: -corpus N (matrices standing in for the 2888 SuiteSparse
// sweep), -maxnnz (largest corpus matrix), -scale S (divisor on the
// published sizes of the representative matrices), -machines a,b,...
//
// Host wall-clock timings of the multiply kernels live in the
// repository-root Go benchmarks (BenchmarkSpMVCompute, BenchmarkCompute,
// BenchmarkComputeSegSum, BenchmarkComputeBatch) and in perfbench's
// per-layer kernel.* and core.* rows, not here; serving throughput,
// coalesced against solo through the HTTP server, is gated by
// TestServeCoalescingThroughputTarget in internal/server.
//
// Observability knobs: -telemetry enables instrumentation for the run,
// -metrics-addr ADDR serves /metrics (Prometheus text), /debug/vars
// (expvar) and /debug/pprof while the experiments execute, and
// -trace FILE writes a Chrome trace_event JSON (one span per simulated
// core plus partition-decision records) openable in chrome://tracing or
// https://ui.perfetto.dev. Both -metrics-addr and -trace imply
// -telemetry.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"haspmv/internal/amp"
	"haspmv/internal/bench"
	"haspmv/internal/gen"
	"haspmv/internal/telemetry"
	"haspmv/internal/verify"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "haspmv-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("haspmv-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (table1, table2, fig3, fig4, fig5, fig8, fig9, fig10, fig11, energy, phases, breakdown, adapt, selfcheck, all)")
	corpus := fs.Int("corpus", 0, "corpus size (default from harness)")
	maxNNZ := fs.Int("maxnnz", 0, "largest corpus matrix nnz")
	scale := fs.Int("scale", 0, "representative matrix scale divisor (1 = published size)")
	machines := fs.String("machines", "", "comma-separated machine names (default: all four)")
	points := fs.Int("points", 24, "stream sweep points per curve (fig3)")
	matrix := fs.String("matrix", "rma10", "representative matrix for the breakdown and adapt experiments and the -trace run")
	perturbs := fs.String("perturb", "0.5,2,4", "comma-separated P-group miscalibration factors for the adapt experiment")
	adaptSteps := fs.Int("adapt-steps", 10, "multiplies the adapt experiment lets the feedback loop observe")
	seed := fs.Int64("seed", 0, "corpus seed override")
	csvDir := fs.String("csv", "", "also write one CSV per experiment into this directory")
	telemetryOn := fs.Bool("telemetry", false, "collect phase timers, per-core spans and partition records")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (implies -telemetry; \":0\" picks a port)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON here after the run (implies -telemetry)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if _, ok := gen.RepresentativeInfo(*matrix); !ok {
		return fmt.Errorf("unknown matrix %q (have %s)", *matrix, strings.Join(gen.RepresentativeNames(), ", "))
	}
	if *adaptSteps < 1 {
		return fmt.Errorf("-adapt-steps: %d must be positive", *adaptSteps)
	}
	writeCSV := func(name string, emit func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	cfg := bench.DefaultConfig()
	if *corpus > 0 {
		cfg.CorpusSize = *corpus
	}
	if *maxNNZ > 0 {
		cfg.CorpusMaxNNZ = *maxNNZ
	}
	if *scale > 0 {
		cfg.RepScale = *scale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *machines != "" {
		cfg.Machines = nil
		for _, name := range strings.Split(*machines, ",") {
			m, ok := amp.ByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown machine %q (have i9-12900KF, i9-13900KF, 7950X3D, 7950X)", name)
			}
			cfg.Machines = append(cfg.Machines, m)
		}
	}

	out := os.Stdout

	// Observability: -metrics-addr and -trace both need a live collector.
	if *metricsAddr != "" || *tracePath != "" {
		*telemetryOn = true
	}
	if *telemetryOn {
		col := telemetry.NewCollector()
		prev := telemetry.Activate(col)
		defer telemetry.Activate(prev)
		if *metricsAddr != "" {
			srv, err := telemetry.Serve(*metricsAddr)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "haspmv-bench: serving /metrics, /debug/vars and /debug/pprof on http://%s\n", srv.Addr())
		}
		if *tracePath != "" {
			defer func() {
				// One instrumented Prepare+Multiply so the trace carries a
				// span per simulated core even for simulator-only runs.
				if err := bench.TraceRun(cfg, cfg.Machines[0], *matrix); err != nil {
					fmt.Fprintln(os.Stderr, "haspmv-bench: trace:", err)
					return
				}
				f, err := os.Create(*tracePath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "haspmv-bench: trace:", err)
					return
				}
				if err := col.WriteTrace(f); err == nil {
					err = f.Close()
				} else {
					f.Close()
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "haspmv-bench: trace:", err)
					return
				}
				fmt.Fprintf(os.Stderr, "haspmv-bench: wrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
			}()
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "table2", "fig3", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "energy", "phases"}
	}
	for _, id := range ids {
		switch id {
		case "table1":
			fmt.Fprintln(out, "\n# Table I — modeled platform specifications")
			bench.PrintTable1(out, bench.Table1(cfg))
		case "table2":
			fmt.Fprintf(out, "\n# Table II — representative matrices at scale 1/%d\n", cfg.RepScale)
			bench.PrintTable2(out, bench.Table2(cfg))
		case "fig3":
			series := bench.Fig3(cfg, *points)
			bench.PrintFig3(out, series)
			if err := writeCSV("fig3", func(w io.Writer) error { return bench.Fig3CSV(w, series) }); err != nil {
				return err
			}
		case "fig4":
			res, err := bench.Fig4(cfg)
			if err != nil {
				return err
			}
			bench.PrintFig4(out, res)
			if err := writeCSV("fig4", func(w io.Writer) error { return bench.Fig4CSV(w, res) }); err != nil {
				return err
			}
		case "fig5":
			res, err := bench.Fig5(cfg)
			if err != nil {
				return err
			}
			bench.PrintFig5(out, res)
			if err := writeCSV("fig5", func(w io.Writer) error { return bench.Fig5CSV(w, res) }); err != nil {
				return err
			}
		case "fig8":
			res, err := bench.Fig8(cfg)
			if err != nil {
				return err
			}
			bench.PrintFig8(out, res)
			if err := writeCSV("fig8", func(w io.Writer) error { return bench.Fig8CSV(w, res) }); err != nil {
				return err
			}
		case "fig9":
			res, err := bench.Fig9(cfg)
			if err != nil {
				return err
			}
			bench.PrintFig9(out, res)
			if err := writeCSV("fig9", func(w io.Writer) error { return bench.Fig9CSV(w, res) }); err != nil {
				return err
			}
		case "fig10":
			for _, m := range cfg.Machines {
				rows, err := bench.Fig10(cfg, m)
				if err != nil {
					return err
				}
				bench.PrintFig10(out, m, rows)
				m := m
				if err := writeCSV("fig10-"+m.Name, func(w io.Writer) error { return bench.Fig10CSV(w, m.Name, rows) }); err != nil {
					return err
				}
			}
		case "fig11":
			res, err := bench.Fig11(cfg)
			if err != nil {
				return err
			}
			bench.PrintFig11(out, res)
			if err := writeCSV("fig11", func(w io.Writer) error { return bench.Fig11CSV(w, res) }); err != nil {
				return err
			}
		case "phases":
			for _, m := range cfg.Machines {
				matrices := []string{"mac_econ_fwd500", "webbase-1M", "rma10", "cant", "Dubcova2"}
				rows, err := bench.PhaseBreakdown(cfg, m, matrices)
				if err != nil {
					return err
				}
				bench.PrintPhases(out, m, rows)
				m := m
				if err := writeCSV("phases-"+m.Name, func(w io.Writer) error { return bench.PhasesCSV(w, m.Name, rows) }); err != nil {
					return err
				}
			}
		case "breakdown":
			for _, m := range cfg.Machines {
				rows, err := bench.Breakdown(cfg, m, *matrix)
				if err != nil {
					return err
				}
				bench.PrintBreakdown(out, m, *matrix, rows)
			}
		case "adapt":
			var factors []float64
			for _, part := range strings.Split(*perturbs, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
				if err != nil {
					return fmt.Errorf("-perturb: %w", err)
				}
				if v <= 0 {
					return fmt.Errorf("-perturb: factor %v must be positive", v)
				}
				factors = append(factors, v)
			}
			var results []*bench.AdaptResult
			for _, m := range cfg.Machines {
				for _, factor := range factors {
					r, err := bench.AdaptSweep(cfg, m, *matrix, factor, *adaptSteps)
					if err != nil {
						return err
					}
					bench.PrintAdapt(out, r)
					results = append(results, r)
				}
			}
			if err := writeCSV("adapt", func(w io.Writer) error { return bench.AdaptCSV(w, results) }); err != nil {
				return err
			}
		case "selfcheck":
			n := 0
			for _, m := range cfg.Machines {
				for _, alg := range bench.AlgorithmsFor(m) {
					for _, tc := range verify.Battery() {
						if err := verify.OnMatrix(alg, m, tc.A); err != nil {
							return fmt.Errorf("selfcheck %s on %s / %s: %w", alg.Name(), m.Name, tc.Name, err)
						}
						n++
					}
				}
			}
			fmt.Fprintf(out, "selfcheck: %d algorithm x machine x matrix combinations verified\n", n)
		case "energy":
			res, err := bench.ExtEnergy(bench.EnergyMachines(cfg))
			if err != nil {
				return err
			}
			bench.PrintExtEnergy(out, res)
			if err := writeCSV("energy", func(w io.Writer) error { return bench.EnergyCSV(w, res) }); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	return nil
}
