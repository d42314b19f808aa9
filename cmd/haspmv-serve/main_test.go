package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/gen"
)

// startServe runs the daemon in-process on an ephemeral port and returns
// its base URL plus a shutdown trigger.
func startServe(t *testing.T, args ...string) (url string, shutdown chan struct{}, done chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	shutdown = make(chan struct{})
	done = make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...),
			func(addr string) { addrCh <- addr }, shutdown)
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, shutdown, done
	case err := <-done:
		t.Fatalf("daemon exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil, nil
}

func TestServeDaemonEndToEnd(t *testing.T) {
	url, shutdown, done := startServe(t, "-preload", "dawson5@64", "-scale", "64")

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}

	// The preloaded matrix shows up in the listing before any multiply.
	resp, err = http.Get(url + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Resident []struct {
			Key string `json:"key"`
		} `json:"resident"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Resident) != 1 || list.Resident[0].Key != "dawson5@64" {
		t.Fatalf("resident = %+v, want preloaded dawson5@64", list.Resident)
	}

	// A multiply over the wire matches a local serial Multiply bitwise.
	a := gen.Representative("dawson5", 64)
	prep, err := core.New(core.Options{}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%13) / 12
	}
	want := make([]float64, a.Rows)
	prep.Compute(want, x)

	body, _ := json.Marshal(map[string]any{"matrix": "dawson5", "x": x})
	resp, err = http.Post(url+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var mr struct {
		Y       []float64 `json:"y"`
		BatchNV int       `json:"batch_nv"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr.Y) != a.Rows || mr.BatchNV < 1 {
		t.Fatalf("response: %d values, batch_nv %d", len(mr.Y), mr.BatchNV)
	}
	for i := range mr.Y {
		if mr.Y[i] != want[i] {
			t.Fatalf("y[%d] = %x, serial Multiply gives %x", i, mr.Y[i], want[i])
		}
	}

	// Telemetry rides on the same port.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "haspmv_serve_requests_total") {
		t.Fatalf("/metrics: status %d, body missing serve counters:\n%.400s", resp.StatusCode, buf.String())
	}

	close(shutdown)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain on shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after shutdown signal")
	}
}

func TestServeDaemonFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown machine", []string{"-machine", "z80"}, "unknown machine"},
		{"bad preload scale", []string{"-preload", "rma10@zero"}, "scale must be"},
		{"unknown preload matrix", []string{"-preload", "no-such@16"}, "unknown matrix"},
	}
	for _, tc := range cases {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := run([]string{"-h"}, nil, nil); err != nil {
		t.Errorf("-h should return nil after printing usage, got %v", err)
	}
}

// TestServeRejectsAdapterFlags: the partition is set offline, so there
// is no runtime adapter to enable and its flags fail parsing.
func TestServeRejectsAdapterFlags(t *testing.T) {
	for _, flag := range []string{"-adapt", "-adapt-every=4"} {
		t.Run(strings.TrimPrefix(strings.SplitN(flag, "=", 2)[0], "-"), func(t *testing.T) {
			err := run([]string{"-addr", "127.0.0.1:0", flag}, nil, nil)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Fatalf("%s: err = %v, want an undefined-flag error", flag, err)
			}
		})
	}
}

// A -store-dir daemon restart cold-starts its preload from the store:
// the second boot serves the same bits without re-running Prepare.
func TestServeStoreDirColdStart(t *testing.T) {
	dir := t.TempDir()

	multiply := func(url string, x []float64) []float64 {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"matrix": "dawson5", "x": x})
		resp, err := http.Post(url+"/v1/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("multiply: status %d", resp.StatusCode)
		}
		var mr struct {
			Y []float64 `json:"y"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		return mr.Y
	}

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%5)
	}

	args := []string{"-preload", "dawson5@64", "-scale", "64", "-store-dir", dir, "-telemetry=false"}
	url1, shutdown1, done1 := startServe(t, args...)
	y1 := multiply(url1, x)
	close(shutdown1)
	if err := <-done1; err != nil {
		t.Fatalf("first daemon drain: %v", err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("store dir empty after drain: %v %v", ents, err)
	}

	url2, shutdown2, done2 := startServe(t, args...)
	y2 := multiply(url2, x)
	close(shutdown2)
	if err := <-done2; err != nil {
		t.Fatalf("second daemon drain: %v", err)
	}

	if len(y1) != len(y2) {
		t.Fatalf("response lengths differ: %d vs %d", len(y1), len(y2))
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("y[%d] differs across store cold start: %x vs %x", i, y1[i], y2[i])
		}
	}
}
