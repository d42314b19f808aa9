// Command perfbench is the repository benchmark. It runs one workload
// against the real entry points of each layer and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload serve-json --seed 3 --seconds 40 --trace 0
//
// Workloads (see NOTES.md for why each exists):
//
//	spmv-mix       library path: Analyze + Multiply/MultiplyBatch on four
//	               matrix classes, one closed-loop caller
//	serve-json     server.New behind a loopback listener, two closed-loop
//	               HTTP/JSON clients
//	fleet-scatter  fleet.NewRouter over two in-process workers, the matrix
//	               split into two shards, two closed-loop clients; too noisy
//	               for an end-to-end bound, so BENCHMARK.json does not list
//	               it, but every traced run measures its layers
//
// Every output is checked bit for bit against a reference computed during
// setup; a mismatch, a non-200 answer or a transport error is a failed op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloadNames lists the workloads in the order a traced run visits
// them after the selected one.
var workloadNames = []string{"spmv-mix", "serve-json", "fleet-scatter"}

// minTailSamples is how many samples must lie beyond a tail percentile
// for it to be reported.
const minTailSamples = 10

// config is what a workload is built from. Everything a run measures is
// derived from seed; size picks full or test-sized inputs.
type config struct {
	seed int64
	// window is the measured time of a run; warmup runs before each
	// measured pass and is excluded.
	window, warmup time.Duration
	// minSamples extends a pass past window until that many ops have been
	// measured (capped at another window), so the tail percentile always
	// has enough samples beyond it.
	minSamples int
	// setupReps is how many times setup runs, one per chunk of the
	// window (see measureChunks); setup_s is their median.
	setupReps int
	// small shrinks every matrix for the benchmark's own tests.
	small bool
	// corrupt flips one bit of one reference output, so the check must
	// count failed ops (used by the tests).
	corrupt bool
	// triadGBs is the host triad bandwidth, measured before any workload
	// in a traced run; the roofline metrics divide by it.
	triadGBs float64
	// scratch is the directory the store round trip writes into.
	scratch string
	// log receives progress and failure details.
	log io.Writer
}

// workload is one benchmark scenario. measure builds it (inputs and
// references, untimed), runs setup, drives op from clients() closed-loop
// callers, and tears it down.
type workload interface {
	clients() int
	// setup builds the system under test and returns the time the
	// workload's setup_s definition covers. traced selects the
	// instrumented variant (timing wrappers, flight recorder).
	setup(traced bool) (time.Duration, error)
	// op runs the i-th operation of client c and returns its latency as
	// the client sees it. The output check runs after the latency stamp;
	// a failed check returns an error. measured is false during warm-up.
	op(c, i int, measured bool) (time.Duration, error)
	// layers adds the per-layer metrics of a traced pass and returns the
	// trace invariants that did not hold.
	layers(ms metrics) (problems []string, err error)
	teardown()
	// info is recorded next to the result: sizes, placement, checks.
	info() map[string]any
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "spmv-mix":
		return newSpmvMix(cfg)
	case "serve-json":
		return newServeJSON(cfg)
	case "fleet-scatter":
		return newFleetScatter(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want spmv-mix, serve-json or fleet-scatter)", name)
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "spmv-mix, serve-json or fleet-scatter")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	cfg := config{
		seed:       *seed,
		window:     window,
		warmup:     time.Second,
		minSamples: 100,
		setupReps:  9,
		scratch:    ".bench_build",
		log:        stderr,
	}
	res, info, err := measure(*name, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// warmupFor excludes the first tenth of a run, at least one second.
func warmupFor(window time.Duration) time.Duration {
	if w := window / 10; w > time.Second {
		return w
	}
	return time.Second
}

// measure runs one workload untraced (end-to-end metrics) or, when
// traced, the per-layer pass described in NOTES.md.
func measure(name string, cfg config, traced bool) (result, map[string]any, error) {
	info := map[string]any{"workload": name, "seed": cfg.seed, "trace": traced, "host": hostStamp()}
	if traced {
		res, err := measureLayers(name, cfg, info)
		return res, info, err
	}
	w, err := newWorkload(name, cfg)
	if err != nil {
		return result{}, nil, err
	}
	setups, passes, err := measureChunks(w, cfg)
	if err != nil {
		return result{}, nil, err
	}
	st := statsOf(passes...)
	ms := metrics{}
	ms.set("setup_s", "s", median(setups))
	ms.set("ops_per_s", "1/s", st.OpsPerS)
	ms.set("latency_p50_ms", "ms", st.P50Ms)
	info["window"] = st
	info["setup_s_reps"] = setups
	info["workload_info"] = w.info()
	res := result{Metrics: ms}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	return res, info, nil
}

// measureChunks splits the measured window into cfg.setupReps chunks. Each
// chunk runs on a fresh setup, after its own cfg.warmup, and is torn down
// after it. A shared host can drift between fast and slow states every
// minute or two (see NOTES.md); spreading the set-ups over the whole run
// makes setup_s a median across those states, as the window figures
// are, instead of a sample of one moment.
func measureChunks(w workload, cfg config) ([]float64, []loopResult, error) {
	n := max(cfg.setupReps, 1)
	chunk := cfg
	chunk.window = cfg.window / time.Duration(n)
	chunk.minSamples = (cfg.minSamples + n - 1) / n
	var setups []float64
	var passes []loopResult
	for r := 0; r < n; r++ {
		d, err := w.setup(false)
		if err != nil {
			w.teardown()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		passes = append(passes, closedLoop(w, chunk))
		w.teardown()
	}
	return setups, passes, nil
}

// measureLayers is the traced run. The selected workload runs half the
// window untraced and half traced (trace.overhead_pct compares the two);
// the other workloads then run a shorter traced pass each, so every
// per-layer metric is measured in every traced run. The triad runs first,
// before any matrix is resident.
func measureLayers(name string, cfg config, info map[string]any) (result, error) {
	if !knownWorkload(name) {
		return result{}, fmt.Errorf("unknown workload %q (want spmv-mix, serve-json or fleet-scatter)", name)
	}
	ms := metrics{}
	res := result{Correct: true, Metrics: ms}
	triad := measureTriad(cfg)
	cfg.triadGBs = triad.GBps
	ms.set("memory.triad_gbs", "GB/s", triad.GBps)
	info["triad"] = triad

	half := cfg
	half.window = cfg.window / 2
	half.warmup = warmupFor(half.window)
	half.setupReps = 1
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	var problems []string
	passes := map[string]any{}
	for k, n := range order {
		pcfg := half
		if k > 0 {
			pcfg.window = cfg.window / 4
			pcfg.warmup = time.Second
			pcfg.minSamples = 0
		}
		// Every layer metric needs a few traced ops, however short the window.
		pcfg.minSamples = max(pcfg.minSamples, 3)
		w, err := newWorkload(n, pcfg)
		if err != nil {
			return result{}, err
		}
		var untraced loopResult
		if k == 0 {
			if _, err := w.setup(false); err != nil {
				w.teardown()
				return result{}, fmt.Errorf("%s setup: %w", n, err)
			}
			untraced = closedLoop(w, pcfg)
			w.teardown()
			res.Attempted += untraced.attempted
			res.Failed += untraced.failed
		}
		if _, err := w.setup(true); err != nil {
			w.teardown()
			return result{}, fmt.Errorf("%s traced setup: %w", n, err)
		}
		pass := closedLoop(w, pcfg)
		res.Attempted += pass.attempted
		res.Failed += pass.failed
		bad, err := w.layers(ms)
		w.teardown()
		if err != nil {
			return result{}, fmt.Errorf("%s layers: %w", n, err)
		}
		for _, b := range bad {
			problems = append(problems, n+": "+b)
		}
		if k == 0 {
			base, tr := statsOf(untraced).OpsPerS, statsOf(pass).OpsPerS
			if base > 0 {
				ms.set("trace.overhead_pct", "%", 100*(base-tr)/base)
			}
			info["untraced_ops_per_s"] = base
			info["traced_ops_per_s"] = tr
			lat := untraced.latenciesMs(0, math.MaxInt64)
			if p90, ok := tailPercentile(lat, 0.90); ok && !math.IsInf(p90, 0) {
				ms.set("client.latency_p90_ms", "ms", p90)
			} else {
				fmt.Fprintf(cfg.log, "perfbench: %d samples leave fewer than %d beyond p90; not reported\n", len(lat), minTailSamples)
			}
		}
		passes[n] = map[string]any{"samples": len(pass.ops), "info": w.info()}
		w = nil
		runtime.GC()
		debug.FreeOSMemory()
	}
	info["passes"] = passes
	if len(problems) > 0 {
		sort.Strings(problems)
		info["trace_problems"] = problems
		for _, p := range problems {
			fmt.Fprintf(cfg.log, "perfbench: trace invariant: %s\n", p)
		}
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	return res, nil
}

// knownWorkload reports whether name is one of workloadNames.
func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}
