package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"haspmv/internal/gen"
)

func TestParseShards(t *testing.T) {
	got, err := parseShards("webbase-1M@16=3, dawson5=2", 64)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"webbase-1M@16": 3, "dawson5@64": 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for _, bad := range []string{"x", "x=1", "x=zero", "x=65"} {
		if _, err := parseShards(bad, 16); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	if m, err := parseShards("", 16); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}
}

// buildServe compiles the worker binary the fleet will spawn.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "haspmv-serve")
	cmd := exec.Command("go", "build", "-o", bin, "haspmv/cmd/haspmv-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building haspmv-serve: %v\n%s", err, out)
	}
	return bin
}

// TestFleetEndToEnd is the in-repo version of the CI fleet-chaos
// harness: boot a 2-worker fleet, drive traffic, SIGKILL one worker
// mid-stream, and require zero failed requests plus a recorded restart,
// then a clean drain.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real worker processes")
	}
	bin := buildServe(t)

	addrCh := make(chan string, 1)
	shutdown := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-workers", "2",
			"-worker-bin", bin,
			"-scale", "48",
			"-preload", "dawson5@48",
			"-backoff", "50ms",
			"-health-every", "50ms",
		}, func(addr string) { addrCh <- addr }, shutdown)
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("fleet exited before binding: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("fleet never became ready")
	}

	waitHealthy := func(budget time.Duration) {
		t.Helper()
		deadline := time.Now().Add(budget)
		for time.Now().Before(deadline) {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatal("fleet never reported healthy")
	}
	waitHealthy(60 * time.Second)

	fleetStatus := func() (workers []struct {
		Index    int    `json:"index"`
		Pid      int    `json:"pid"`
		State    string `json:"state"`
		Restarts int64  `json:"restarts"`
	}) {
		t.Helper()
		resp, err := http.Get(base + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Workers []struct {
				Index    int    `json:"index"`
				Pid      int    `json:"pid"`
				State    string `json:"state"`
				Restarts int64  `json:"restarts"`
			} `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Workers
	}
	// Wait for both workers before starting the chaos clock.
	deadline := time.Now().Add(60 * time.Second)
	for {
		ws := fleetStatus()
		up := 0
		for _, w := range ws {
			if w.State == "up" {
				up++
			}
		}
		if up == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached 2 up workers: %+v", ws)
		}
		time.Sleep(100 * time.Millisecond)
	}

	a := gen.Representative("dawson5", 48)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%9)*0.5
	}
	body, err := json.Marshal(map[string]any{"matrix": "dawson5", "scale": 48, "x": x})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 4, 25
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	killed := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(base+"/v1/multiply", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- fmt.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d request %d: status %d", c, i, resp.StatusCode)
					return
				}
				if c == 0 && i == perClient/2 {
					// Mid-traffic chaos: SIGKILL one worker.
					for _, w := range fleetStatus() {
						if w.State == "up" {
							syscall.Kill(w.Pid, syscall.SIGKILL)
							break
						}
					}
					close(killed)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("failed request: %v", err)
	}
	<-killed

	// The supervisor must record the restart and bring the worker back.
	deadline = time.Now().Add(60 * time.Second)
	for {
		ws := fleetStatus()
		restarts, up := int64(0), 0
		for _, w := range ws {
			restarts += w.Restarts
			if w.State == "up" {
				up++
			}
		}
		if restarts >= 1 && up == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed worker never restarted: %+v", ws)
		}
		time.Sleep(100 * time.Millisecond)
	}

	close(shutdown)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fleet drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("fleet never drained")
	}
}
