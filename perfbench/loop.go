package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// measuredOp is one op started inside the measured window.
type measuredOp struct {
	// start and end are offsets from the start of the window.
	start, end time.Duration
	// latMs is the latency the client saw; a failed op counts as missing
	// every limit and is stored as +Inf.
	latMs float64
	ok    bool
}

// loopResult is one closed-loop pass.
type loopResult struct {
	ops    []measuredOp
	window time.Duration
	// attempted and failed count every op of the pass, warm-up included.
	attempted, failed int
}

// latenciesMs returns the latencies of ops that started in [lo, hi), sorted.
func (r loopResult) latenciesMs(lo, hi time.Duration) []float64 {
	var out []float64
	for _, o := range r.ops {
		if o.start >= lo && o.start < hi {
			out = append(out, o.latMs)
		}
	}
	sort.Float64s(out)
	return out
}

// completions counts the successful ops that ended inside the measured
// window after the first one, and the time from the first to the last;
// their ratio is the completion rate (no rounding to whole ops per
// interval).
func (r loopResult) completions() (int, time.Duration) {
	n := 0
	var first, last time.Duration
	for _, o := range r.ops {
		if !o.ok || o.end < 0 || o.end >= r.window {
			continue
		}
		if n == 0 || o.end < first {
			first = o.end
		}
		if o.end > last {
			last = o.end
		}
		n++
	}
	if n < 2 || last <= first {
		return 0, 0
	}
	return n - 1, last - first
}

// windowStats are the end-to-end figures over the measured windows of
// one or more passes: the completion rate, and the median and fastest
// latencies as the client saw them.
type windowStats struct {
	OpsPerS float64 `json:"ops_per_s"`
	P50Ms   float64 `json:"latency_p50_ms"`
	MinMs   float64 `json:"latency_min_ms"`
	P10Ms   float64 `json:"latency_p10_ms"`
	P25Ms   float64 `json:"latency_p25_ms"`
	Samples int     `json:"samples"`
}

// statsOf pools the passes' measured ops: the rate is their completions
// over the sum of their measured spans, the latencies those of every op.
func statsOf(passes ...loopResult) windowStats {
	var lat []float64
	n, span := 0, time.Duration(0)
	for _, r := range passes {
		lat = append(lat, r.latenciesMs(0, r.window)...)
		k, d := r.completions()
		n += k
		span += d
	}
	sort.Float64s(lat)
	s := windowStats{P50Ms: finite(median(lat)), Samples: len(lat)}
	if span > 0 {
		s.OpsPerS = float64(n) / span.Seconds()
	}
	if len(lat) > 0 {
		s.MinMs = finite(lat[0])
		s.P10Ms = finite(lat[len(lat)/10])
		s.P25Ms = finite(lat[len(lat)/4])
	}
	return s
}

// finite maps the +Inf of a median over mostly failed ops to -1, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) {
		return -1
	}
	return v
}

// closedLoop drives w from w.clients() callers, each sending its next op
// only after the previous one returned. Ops that start during the first
// cfg.warmup are run but not measured; ops starting in the following
// cfg.window are measured. Callers keep going past the window, by at most
// another window (5 s at least), until cfg.minSamples ops have been
// measured, so the tail percentile has enough samples beyond it; the
// end-to-end figures only cover the window itself.
func closedLoop(w workload, cfg config) loopResult {
	type clientLog struct {
		ops               []measuredOp
		attempted, failed int
	}
	n := w.clients()
	logs := make([]clientLog, n)
	var measured atomic.Int64
	var logMu sync.Mutex
	reported := 0
	tStart := time.Now().Add(cfg.warmup)
	tEnd := tStart.Add(cfg.window)
	tHard := tEnd.Add(max(cfg.window, 5*time.Second))
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &logs[c]
			for i := 0; ; i++ {
				now := time.Now()
				if now.After(tEnd) && (measured.Load() >= int64(cfg.minSamples) || now.After(tHard)) {
					return
				}
				inWindow := !now.Before(tStart)
				lat, err := w.op(c, i, inWindow)
				done := time.Now()
				cl.attempted++
				ms := float64(lat) / 1e6
				if err != nil {
					cl.failed++
					ms = math.Inf(1)
					logMu.Lock()
					if reported < 5 {
						fmt.Fprintf(cfg.log, "perfbench: client %d op %d failed: %v\n", c, i, err)
					}
					reported++
					logMu.Unlock()
				}
				if !inWindow {
					continue
				}
				measured.Add(1)
				cl.ops = append(cl.ops, measuredOp{start: now.Sub(tStart), end: done.Sub(tStart), latMs: ms, ok: err == nil})
			}
		}(c)
	}
	wg.Wait()
	r := loopResult{window: cfg.window}
	for _, cl := range logs {
		r.ops = append(r.ops, cl.ops...)
		r.attempted += cl.attempted
		r.failed += cl.failed
	}
	return r
}

// median of unsorted values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile of sorted and
// whether at least minTailSamples samples lie beyond it; a tail
// percentile with fewer samples past it is not reported.
func tailPercentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTailSamples {
		return 0, false
	}
	return sorted[rank-1], true
}

// mean of values (0 for none).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
