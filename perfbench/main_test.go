package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// smallConfig is a test-sized pass: every matrix shrunk, a short window.
func smallConfig(t *testing.T) config {
	return config{
		scratch:    t.TempDir(),
		seed:       7,
		window:     300 * time.Millisecond,
		warmup:     50 * time.Millisecond,
		minSamples: 100,
		setupReps:  1,
		small:      true,
		log:        io.Discard,
	}
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics requires ms to hold exactly the named metrics, each with
// its declared unit.
func checkMetrics(t *testing.T, label string, ms metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := ms[name]
		if !ok {
			t.Errorf("%s: metric %s not printed", label, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
	var extra []string
	for name := range ms {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: metrics not in BENCHMARK.json: %v", label, extra)
	}
}

// BENCHMARK.json lists the workloads with end-to-end bounds; fleet-scatter
// is runnable by name and measured in every traced run, but not listed.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	want := []string{"spmv-mix", "serve-json"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, n := range names {
		if !knownWorkload(n) {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs (%v)", n, workloadNames)
		}
	}
}

func TestEndToEndMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		res, _, err := measure(name, smallConfig(t), false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, name, res.Metrics, want)
	}
}

func TestPerLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	want := map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	cfg := smallConfig(t)
	cfg.window = 400 * time.Millisecond
	res, info, err := measure("serve-json", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, info["trace_problems"])
	}
	checkMetrics(t, "traced", res.Metrics, want)
	if got := res.Metrics["fleet.upstream_per_op"].Value; got != fleetShards {
		t.Errorf("fleet.upstream_per_op = %v, want %d", got, fleetShards)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, ok := tailPercentile(sorted(99), 0.90); ok {
		t.Error("p90 of 99 samples has 9 beyond it but was reported")
	}
	if v, ok := tailPercentile(sorted(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90, true", v, ok)
	}
	// A traced pass too short for ten samples past p90 omits the metric.
	cfg := smallConfig(t)
	cfg.window, cfg.minSamples = 4*time.Millisecond, 0
	res, _, err := measure("spmv-mix", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Metrics["client.latency_p90_ms"]; ok {
		t.Error("client.latency_p90_ms reported from a pass with fewer than 100 samples")
	}
}

func TestCorruptedReferenceCountsAsFailedOp(t *testing.T) {
	for _, name := range workloadNames {
		cfg := smallConfig(t)
		cfg.corrupt = true
		res, _, err := measure(name, cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed < 1 || res.Correct {
			t.Errorf("%s: corrupted reference gave correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestFleetPlacementIsChecked(t *testing.T) {
	saved := fleetBackends
	defer func() { fleetBackends = saved }()
	fleetBackends = []string{saved[1], saved[0]}
	if _, _, err := measure("fleet-scatter", smallConfig(t), false); err == nil || !strings.Contains(err.Error(), "placed on") {
		t.Errorf("swapped backends: err = %v, want a placement error", err)
	}
}
