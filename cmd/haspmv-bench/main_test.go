package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haspmv/internal/telemetry"
)

func TestRunDispatch(t *testing.T) {
	// Fast experiments only; the heavy sweeps are covered in
	// internal/bench's tests.
	for _, exp := range []string{"table1", "table2", "fig9"} {
		if err := run([]string{"-exp", exp, "-scale", "64"}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunFlagsAndErrors(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("unknown experiment: %v", err)
	}
	if err := run([]string{"-machines", "z80"}); err == nil || !strings.Contains(err.Error(), "z80") {
		t.Fatalf("unknown machine: %v", err)
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Machine filtering works with extension presets.
	if err := run([]string{"-exp", "table1", "-machines", "apple-m2-like,7950X"}); err != nil {
		t.Fatal(err)
	}
	// Host timings are the root Go benchmarks, not experiments, the
	// coalescing gate runs through the HTTP server in internal/server, and
	// the partition is set offline (TuneProportion), not by a runtime loop.
	for _, exp := range []string{"batch", "index", "format", "segsum", "host", "serve", "adapt"} {
		t.Run("removed-"+exp, func(t *testing.T) {
			if err := run([]string{"-exp", exp}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
				t.Fatalf("-exp %s: %v", exp, err)
			}
		})
	}
	// The adapter experiment's knobs went with it.
	for _, flag := range []string{"-perturb=0.5", "-adapt-steps=4"} {
		t.Run("removed-flag"+strings.SplitN(flag, "=", 2)[0], func(t *testing.T) {
			if err := run([]string{"-exp", "table1", flag}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Fatalf("%s: %v", flag, err)
			}
		})
	}
	// An unknown matrix is an error naming the known ones, not a panic
	// inside the generator.
	t.Run("unknown-matrix", func(t *testing.T) {
		if err := run([]string{"-exp", "breakdown", "-matrix", "nope"}); err == nil ||
			!strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "rma10") {
			t.Fatalf("unknown matrix: %v", err)
		}
	})
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-exp", "fig9", "-csv", dir})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "metric,core,seconds") {
		t.Fatalf("csv header: %q", string(data[:40]))
	}
}

func TestRunSelfcheckScaledMachines(t *testing.T) {
	if err := run([]string{"-exp", "selfcheck", "-machines", "i9-12900KF"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHelpExitsClean(t *testing.T) {
	// The CI smoke step runs `haspmv-bench -help`; flag.ErrHelp must not
	// surface as a failure.
	if err := run([]string{"-help"}); err != nil {
		t.Fatalf("-help: %v", err)
	}
}

func TestRunPhasesExperiment(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "phases", "-scale", "64", "-machines", "i9-12900KF", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "phases-i9-12900KF.csv"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "machine,matrix,nnz,phase,millis,count") {
		t.Fatalf("csv header: %q", s[:60])
	}
	for _, phase := range []string{"reorder", "cost", "partition_l1", "partition_l2", "prepare", "compute"} {
		if !strings.Contains(s, ","+phase+",") {
			t.Fatalf("phase %q missing from CSV", phase)
		}
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-exp", "table1", "-scale", "64", "-machines", "i9-12900KF", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("trace is not valid JSON")
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	cores := map[int]bool{}
	instants := 0
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			cores[e.Tid] = true
		case "i":
			instants++
		}
	}
	// i9-12900KF models 8 P-cores + 8 E-cores: one span per simulated core.
	if len(cores) != 16 {
		t.Fatalf("trace has spans on %d distinct cores, want 16", len(cores))
	}
	if instants == 0 {
		t.Fatal("trace has no partition-decision instant event")
	}
}

func TestRunMetricsAddr(t *testing.T) {
	// The server only lives for the duration of run(), so probe it from a
	// re-implementation of the wiring: enable a collector, serve, and hit
	// /metrics through the public handler the flag uses.
	srv, err := telemetry.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := run([]string{"-exp", "table1", "-machines", "i9-12900KF", "-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
}
