package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/exec"
	"haspmv/internal/fleet/shard"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Machine == nil {
		cfg.Machine = amp.IntelI912900KF()
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = core.New(core.Options{})
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postMultiply(t *testing.T, url string, req multiplyRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/multiply: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestServeMultiplyEndToEnd: a multiply over HTTP returns exactly the
// bits a local serial Multiply produces (JSON float64 encoding is
// shortest-round-trip, so bit equality survives the wire).
func TestServeMultiplyEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 64})

	const name = "dawson5"
	a := gen.Representative(name, 64)
	prep, err := core.New(core.Options{}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%17) / 16
	}
	want := make([]float64, a.Rows)
	prep.Compute(want, x)

	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: name, X: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr multiplyResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	if mr.Rows != a.Rows || mr.Cols != a.Cols || mr.Scale != 64 {
		t.Fatalf("response shape %d x %d @%d, want %d x %d @64", mr.Rows, mr.Cols, mr.Scale, a.Rows, a.Cols)
	}
	if mr.BatchNV < 1 {
		t.Fatalf("batch_nv = %d", mr.BatchNV)
	}
	if len(mr.Y) != a.Rows {
		t.Fatalf("len(y) = %d, want %d", len(mr.Y), a.Rows)
	}
	for i := range mr.Y {
		if mr.Y[i] != want[i] {
			t.Fatalf("y[%d] = %x, serial Multiply gives %x", i, mr.Y[i], want[i])
		}
	}
}

// TestServeValidation covers the 4xx mappings.
func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 64})

	cases := []struct {
		name   string
		req    multiplyRequest
		status int
	}{
		{"unknown matrix", multiplyRequest{Matrix: "no-such", X: []float64{1}}, http.StatusNotFound},
		{"missing matrix", multiplyRequest{X: []float64{1}}, http.StatusBadRequest},
		{"negative scale", multiplyRequest{Matrix: "dawson5", Scale: -1, X: []float64{1}}, http.StatusBadRequest},
		{"wrong x length", multiplyRequest{Matrix: "dawson5", X: []float64{1, 2, 3}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postMultiply(t, ts.URL, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/multiply")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/multiply: status %d, want 405", resp.StatusCode)
	}

	resp, body := postMultiplyRaw(t, ts.URL, []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d (%s), want 400", resp.StatusCode, body)
	}
}

func postMultiplyRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestServeMatricesAndHealthz: the listing shows resident matrices with
// batcher stats, and healthz reports serving.
func TestServeMatricesAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 64})

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	var list matricesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Known) != 22 {
		t.Fatalf("known roster has %d names, want 22", len(list.Known))
	}
	if len(list.Resident) != 1 || list.Resident[0].Key != Key("dawson5", 64) {
		t.Fatalf("resident = %+v, want one dawson5@64 entry", list.Resident)
	}
	ri := list.Resident[0]
	if ri.Requests != 1 || ri.NNZ == 0 || ri.Rows != a.Rows {
		t.Fatalf("resident info %+v inconsistent with one served request", ri)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}
}

// slowAlg wraps the blocking fake Prepared in an exec.Algorithm so HTTP
// tests can hold computations open.
type slowAlg struct{ prep *blockingPrep }

func (a *slowAlg) Name() string { return "slow" }
func (a *slowAlg) Prepare(_ *amp.Machine, _ *sparse.CSR) (exec.Prepared, error) {
	return a.prep, nil
}

// TestServeShedsWhenQueueFull: with the dispatcher held busy and the
// queue full, the server answers 429 with a Retry-After hint.
func TestServeShedsWhenQueueFull(t *testing.T) {
	prep := newBlockingPrep()
	srv, ts := newTestServer(t, Config{
		Algorithm: &slowAlg{prep: prep},
		Registry: RegistryOptions{
			Source:  func(string, int) (*sparse.CSR, error) { return diagCSR(t, 4), nil },
			Batcher: BatcherOptions{MaxBatch: 1, Linger: ExplicitZeroLinger, QueueCap: 1},
		},
	})

	x := []float64{1, 2, 3, 4}
	status := make(chan int, 2)
	fire := func() {
		resp, _ := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
		status <- resp.StatusCode
	}
	go fire()
	<-prep.entered // request 1 is computing
	go fire()
	// Wait until request 2 occupies the queue slot.
	e, err := srv.reg.Get(context.Background(), "dawson5", 16)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		e.Batcher.mu.Lock()
		n := len(e.Batcher.queue)
		e.Batcher.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(prep.release)
	for i := 0; i < 2; i++ {
		if got := <-status; got != http.StatusOK {
			t.Fatalf("held request finished with %d, want 200", got)
		}
	}
}

// TestServeDeadlineExpiresInQueue: a queued request whose timeout_ms
// elapses before its flush gets 504.
func TestServeDeadlineExpiresInQueue(t *testing.T) {
	prep := newBlockingPrep()
	srv, ts := newTestServer(t, Config{
		Algorithm: &slowAlg{prep: prep},
		Registry: RegistryOptions{
			Source:  func(string, int) (*sparse.CSR, error) { return diagCSR(t, 4), nil },
			Batcher: BatcherOptions{MaxBatch: 1, Linger: ExplicitZeroLinger, QueueCap: 8},
		},
	})

	x := []float64{1, 2, 3, 4}
	first := make(chan int, 1)
	go func() {
		resp, _ := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
		first <- resp.StatusCode
	}()
	<-prep.entered // request 1 is computing and holds the dispatcher

	second := make(chan int, 1)
	go func() {
		resp, _ := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x, TimeoutMs: 30})
		second <- resp.StatusCode
	}()
	// Wait for request 2 to be queued, then let its 30ms deadline lapse
	// while the dispatcher is still stuck on request 1.
	e, err := srv.reg.Get(context.Background(), "dawson5", 16)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		e.Batcher.mu.Lock()
		n := len(e.Batcher.queue)
		e.Batcher.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond)

	close(prep.release)
	if got := <-second; got != http.StatusGatewayTimeout {
		t.Fatalf("queued request past deadline: status %d, want 504", got)
	}
	if got := <-first; got != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", got)
	}
}

// A timeout_ms too large to be a time.Duration in nanoseconds is a
// long deadline, not an overflowed one that expires at once (504).
func TestServeLargeTimeoutIsALongDeadline(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("timeout_ms past the int range of a 32-bit build is a 400")
	}
	_, ts := newTestServer(t, Config{DefaultScale: 64})
	x := make([]float64, gen.Representative("dawson5", 64).Cols)
	xs, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []string{"9223372036854775", "4611686018427387904"} {
		body := `{"matrix":"dawson5","timeout_ms":` + ms + `,"x":` + string(xs) + `}`
		if resp, out := postMultiplyRaw(t, ts.URL, []byte(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("timeout_ms %s: status %d (%.80s), want 200", ms, resp.StatusCode, out)
		}
	}
}

// TestServeGracefulDrain: Drain finishes in-flight work, then the server
// answers 503 everywhere and healthz reports draining.
func TestServeGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{DefaultScale: 64})

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	if resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup multiply: %d %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second Drain should be a no-op: %v", err)
	}

	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("multiply after drain: %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", hr.StatusCode)
	}
	// The fleet supervisor (and any load balancer) needs the draining
	// healthz to say when to look again.
	if hr.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz 503 missing Retry-After")
	}
}

// TestServeConcurrentClientsBitIdentical is the HTTP-level version of
// the batcher hammer: concurrent clients over the wire, every response
// bit-identical to serial Multiply.
func TestServeConcurrentClientsBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 16})

	const name = "dawson5"
	a := gen.Representative(name, 16)
	prep, err := core.New(core.Options{}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	const patterns = 4
	X := make([][]float64, patterns)
	refs := make([][]float64, patterns)
	for p := 0; p < patterns; p++ {
		X[p] = make([]float64, a.Cols)
		for i := range X[p] {
			X[p][i] = float64((i+p)%31) / 30
		}
		refs[p] = make([]float64, a.Rows)
		prep.Compute(refs[p], X[p])
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				p := (g + j) % patterns
				resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: name, Scale: 16, X: X[p]})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d (%s)", g, resp.StatusCode, body)
					return
				}
				var mr multiplyResponse
				if err := json.Unmarshal(body, &mr); err != nil {
					errs <- err
					return
				}
				for i := range mr.Y {
					if mr.Y[i] != refs[p][i] {
						errs <- fmt.Errorf("client %d: y[%d] = %x, want %x (batch_nv %d)", g, i, mr.Y[i], refs[p][i], mr.BatchNV)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServeShardMultiply: shard requests return the fragment for the
// shard's row range, and gathering all fragments reproduces the serial
// result — the worker half of the fleet's scatter-gather path.
func TestServeShardMultiply(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 64})

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%9)*0.5
	}
	want := make([]float64, a.Rows)
	prep, err := core.New(core.Options{}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatal(err)
	}
	prep.Compute(want, x)

	// Fetch the plan the worker derived for a 3-way split.
	resp, err := http.Get(ts.URL + "/v1/shardplan?matrix=dawson5&scale=64&count=3")
	if err != nil {
		t.Fatal(err)
	}
	var planResp shardPlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&planResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(planResp.Shards) != 3 {
		t.Fatalf("shardplan: status %d, %d shards", resp.StatusCode, len(planResp.Shards))
	}

	frags := make([][]float64, 3)
	for i, d := range planResp.Shards {
		r, body := postMultiply(t, ts.URL, multiplyRequest{
			Matrix: "dawson5", Scale: 64,
			ShardIndex: i, ShardCount: 3,
			X: x[d.ColLo:d.ColHi],
		})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("shard %d multiply: %d %s", i, r.StatusCode, body)
		}
		var mr multiplyResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.ShardIndex != i || mr.ShardCount != 3 || mr.Row0 != d.Row0 {
			t.Fatalf("shard %d echo: index %d count %d row0 %d, want %d/3/%d",
				i, mr.ShardIndex, mr.ShardCount, mr.Row0, i, d.Row0)
		}
		if len(mr.Y) != d.Row1-d.Row0+1 {
			t.Fatalf("shard %d fragment has %d rows, want %d", i, len(mr.Y), d.Row1-d.Row0+1)
		}
		frags[i] = mr.Y
	}
	y := make([]float64, a.Rows)
	if err := shard.Gather(y, planResp.Shards, frags); err != nil {
		t.Fatal(err)
	}
	// Tolerance, not bit-equality: the full-matrix reference and the
	// shard slices are different prepared partitions, and HASpMV may cut
	// any row across cores with its own fragment association. (Bit
	// determinism holds within one prepared shard — the fleet router's
	// guarantee — and is asserted by the fleet package's group tests.)
	for i := range want {
		diff := y[i] - want[i]
		if diff < 0 {
			diff = -diff
		}
		mag := want[i]
		if mag < 0 {
			mag = -mag
		}
		if diff > 1e-9*(1+mag) {
			t.Fatalf("row %d: got %v want %v", i, y[i], want[i])
		}
	}
}

func TestServeShardValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 64})
	// Out-of-range shard index.
	resp, body := postMultiply(t, ts.URL, multiplyRequest{
		Matrix: "dawson5", ShardIndex: 5, ShardCount: 3, X: []float64{1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range shard: %d %s, want 400", resp.StatusCode, body)
	}
	// shardplan parameter errors.
	for _, q := range []string{
		"matrix=dawson5&scale=64&count=0",
		"matrix=dawson5&scale=0&count=2",
		"matrix=no-such&scale=64&count=2",
	} {
		r, err := http.Get(ts.URL + "/v1/shardplan?" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			t.Fatalf("shardplan?%s accepted", q)
		}
	}
}
