package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: haspmv
BenchmarkSpMVCompute/rma10-8         	     100	   1000000 ns/op
BenchmarkSpMVCompute/rma10-8         	     120	    900000 ns/op	 12 B/op	 0 allocs/op
BenchmarkSpMVCompute/rma10-8         	     110	    950000 ns/op
BenchmarkComputeBatch/fused-nv8-16   	      50	   4000000 ns/op
BenchmarkPrepare-8                   	      20	  60000000 ns/op
PASS
ok  	haspmv	12.3s
`

func TestParseBenchTakesMinAndStripsProcs(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSpMVCompute/rma10":      900000, // min of three runs
		"BenchmarkComputeBatch/fused-nv8": 4000000,
		"BenchmarkPrepare":                60000000,
	}
	if len(snap) != len(want) {
		t.Fatalf("parsed %d benchmarks (%v), want %d", len(snap), snap, len(want))
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %v, want %v", name, snap[name], v)
		}
	}
}

func writeSnap(t *testing.T, dir, name string, snap map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateFailsOnSyntheticRegression is the acceptance check for the CI
// gate: a 20% ns/op regression against the baseline must fail with a
// 15% threshold, and pass with a 30% threshold.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", map[string]float64{
		"BenchmarkSpMVCompute/rma10": 1000000,
		"BenchmarkComputeBatch/nv8":  4000000,
	})
	newPath := writeSnap(t, dir, "new.json", map[string]float64{
		"BenchmarkSpMVCompute/rma10": 1200000, // +20%
		"BenchmarkComputeBatch/nv8":  3900000, // improved
	})

	var out bytes.Buffer
	err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "15"}, &out)
	if err == nil {
		t.Fatalf("20%% regression passed a 15%% gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkSpMVCompute/rma10") || !strings.Contains(err.Error(), "+20.0%") {
		t.Fatalf("gate error does not name the regression: %v", err)
	}

	out.Reset()
	if err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "30"}, &out); err != nil {
		t.Fatalf("20%% regression failed a 30%% gate: %v", err)
	}
}

// TestGateFilterAndNewBenchmarks: ungated names never fail the gate, and
// benchmarks with no baseline are reported but tolerated.
func TestGateFilterAndNewBenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", map[string]float64{
		"BenchmarkHot":  1000,
		"BenchmarkCold": 1000,
	})
	newPath := writeSnap(t, dir, "new.json", map[string]float64{
		"BenchmarkHot":   1010,
		"BenchmarkCold":  9000, // 9x, but filtered out
		"BenchmarkNovel": 5000, // no baseline
	})

	var out bytes.Buffer
	if err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "15", "-filter", "Hot"}, &out); err != nil {
		t.Fatalf("filtered comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ungated") || !regexp.MustCompile(`(?m)^\s+new\s+BenchmarkNovel\s`).MatchString(out.String()) {
		t.Fatalf("report missing ungated/new annotations:\n%s", out.String())
	}
}

// TestGateWarnsOnMissingBaselineEntries: a baseline entry absent from
// the current run must surface as a WARNING and be counted in the
// summary, but never fail the gate on its own.
func TestGateWarnsOnMissingBaselineEntries(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", map[string]float64{
		"BenchmarkKept":    1000,
		"BenchmarkDropped": 2000,
		"BenchmarkRenamed": 3000,
	})
	newPath := writeSnap(t, dir, "new.json", map[string]float64{
		"BenchmarkKept": 1005,
	})

	var out bytes.Buffer
	if err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "15"}, &out); err != nil {
		t.Fatalf("missing baseline entries must warn, not fail: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"WARNING", "BenchmarkDropped", "BenchmarkRenamed",
		"2 baseline entr(ies) missing from current run",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestParseRoundTripThroughCLI: -parse/-out writes a snapshot the
// comparison mode can read back.
func TestParseRoundTripThroughCLI(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snap.json")
	var out bytes.Buffer
	if err := run([]string{"-parse", benchPath, "-out", snapPath}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-old", snapPath, "-new", snapPath, "-threshold", "15"}, &out); err != nil {
		t.Fatalf("self-comparison must pass: %v", err)
	}
}

// TestParseBenchCapturesStageMetrics: custom "<stage>-ns/op" metrics
// land in the snapshot as "<name>/stage:<stage>" entries (min across
// runs, like ns/op).
func TestParseBenchCapturesStageMetrics(t *testing.T) {
	const withStages = `goos: linux
BenchmarkServeSubmit-8   	     100	    50000 ns/op	    30000 queue-ns/op	    15000 compute-ns/op	     5000 merge-ns/op
BenchmarkServeSubmit-8   	     100	    48000 ns/op	    29000 queue-ns/op	    14000 compute-ns/op	     5000 merge-ns/op
PASS
`
	snap, err := parseBench(strings.NewReader(withStages))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkServeSubmit":               48000,
		"BenchmarkServeSubmit/stage:queue":   29000,
		"BenchmarkServeSubmit/stage:compute": 14000,
		"BenchmarkServeSubmit/stage:merge":   5000,
	}
	if len(snap) != len(want) {
		t.Fatalf("parsed %v, want %v", snap, want)
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %v, want %v", name, snap[name], v)
		}
	}
}

// TestGateAttributesRegressionToStages: when a gated benchmark regresses
// and both snapshots carry its stage metrics, the failure names the
// stage that moved — and the stage entries themselves are never gated
// (a stage may grow while the total holds).
func TestGateAttributesRegressionToStages(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", map[string]float64{
		"BenchmarkServeSubmit":               50000,
		"BenchmarkServeSubmit/stage:queue":   30000,
		"BenchmarkServeSubmit/stage:compute": 15000,
		"BenchmarkSteady":                    1000,
		"BenchmarkSteady/stage:queue":        100,
	})
	newPath := writeSnap(t, dir, "new.json", map[string]float64{
		"BenchmarkServeSubmit":               70000, // +40%: fails the gate...
		"BenchmarkServeSubmit/stage:queue":   52000, // ...because queue blew up
		"BenchmarkServeSubmit/stage:compute": 15500,
		"BenchmarkSteady":                    1010, // total fine...
		"BenchmarkSteady/stage:queue":        900,  // ...despite a 9x stage swing
	})

	var out bytes.Buffer
	err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "15"}, &out)
	if err == nil {
		t.Fatalf("regression passed the gate:\n%s", out.String())
	}
	msg := err.Error()
	for _, want := range []string{"BenchmarkServeSubmit", "stages:", "queue 30000 -> 52000", "+73.3%", "compute 15000 -> 15500"} {
		if !strings.Contains(msg, want) {
			t.Errorf("gate error missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "BenchmarkSteady") {
		t.Errorf("stage-only swing on a steady benchmark must not fail the gate:\n%s", msg)
	}
	if strings.Contains(out.String(), "stage:queue ") {
		t.Errorf("stage entries must not appear as gated comparison rows:\n%s", out.String())
	}
}

func TestParseBenchCapturesShardMetrics(t *testing.T) {
	const withShards = `goos: linux
BenchmarkFleetServe-8   	       1	  50000000 ns/op	     19210 shards:1-rps	     30744 shards:2-rps
BenchmarkFleetServe-8   	       1	  48000000 ns/op	     19500 shards:1-rps	     29000 shards:2-rps
PASS
`
	snap, err := parseBench(strings.NewReader(withShards))
	if err != nil {
		t.Fatal(err)
	}
	// ns/op keeps the min; rps keeps the max (each the least noisy
	// estimate for its direction).
	want := map[string]float64{
		"BenchmarkFleetServe":          48000000,
		"BenchmarkFleetServe/shards:1": 19500,
		"BenchmarkFleetServe/shards:2": 30744,
	}
	if len(snap) != len(want) {
		t.Fatalf("parsed %v, want %v", snap, want)
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %v, want %v", name, snap[name], v)
		}
	}
}

// TestGateShardThroughputHigherIsBetter: shard-throughput entries fail
// the gate when they DROP beyond the threshold, and a rise — which
// would fail a ns/op gate — passes.
func TestGateShardThroughputHigherIsBetter(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", map[string]float64{
		"BenchmarkFleetServe/shards:1": 20000,
		"BenchmarkFleetServe/shards:4": 60000,
	})
	newPath := writeSnap(t, dir, "new.json", map[string]float64{
		"BenchmarkFleetServe/shards:1": 27000, // +35%: faster, must pass
		"BenchmarkFleetServe/shards:4": 30000, // -50%: sharding collapsed
	})
	var out bytes.Buffer
	err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "15"}, &out)
	if err == nil {
		t.Fatalf("throughput collapse passed the gate:\n%s", out.String())
	}
	msg := err.Error()
	if !strings.Contains(msg, "shards:4") || !strings.Contains(msg, "rps") {
		t.Errorf("gate error does not name the collapsed shard count in rps:\n%s", msg)
	}
	if strings.Contains(msg, "shards:1") {
		t.Errorf("a throughput improvement failed the gate:\n%s", msg)
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{},
		{"-parse", "x.txt"},
		{"-old", "only.json"},
		{"-old", "a.json", "-new", "b.json", "-filter", "("},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
	if err := run([]string{"-h"}, &out); err != nil {
		t.Errorf("-h: %v", err)
	}
}
