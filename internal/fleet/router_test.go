package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/fleet/shard"
	"haspmv/internal/gen"
	"haspmv/internal/server"
)

// newWorker boots a real in-process haspmv-serve handler — the router
// tests exercise the identical wire protocol the process fleet speaks.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(server.New(server.Config{
		Machine:   amp.IntelI912900KF(),
		Algorithm: core.New(core.Options{}),
	}))
	t.Cleanup(srv.Close)
	return srv
}

func workerAddr(s *httptest.Server) string {
	return strings.TrimPrefix(s.URL, "http://")
}

func postMultiply(t *testing.T, rt *Router, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	var out map[string]any
	if w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad response JSON %q: %v", w.Body.String(), err)
		}
	}
	return w, out
}

func TestRouterHashStickiness(t *testing.T) {
	// Counting fronts over one real worker: the same matrix must always
	// land on the same backend; distinct matrices should spread.
	worker := newWorker(t)
	hits := make([]int, 3)
	var mu sync.Mutex
	fronts := make([]*httptest.Server, 3)
	for i := range fronts {
		i := i
		fronts[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
			r.URL.Host = workerAddr(worker)
			resp, err := http.Post(worker.URL+r.URL.Path, "application/json", r.Body)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			w.Write(buf.Bytes())
		}))
		defer fronts[i].Close()
	}
	backends := []string{workerAddr(fronts[0]), workerAddr(fronts[1]), workerAddr(fronts[2])}
	rt, err := NewRouter(RouterOptions{Backends: func() []string { return backends }})
	if err != nil {
		t.Fatal(err)
	}

	a := gen.Representative("dawson5", 16)
	x := make([]float64, a.Cols)
	body := mustBody(t, "dawson5", 16, x)
	for i := 0; i < 10; i++ {
		w, _ := postMultiply(t, rt, body)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body.String())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	owners := 0
	for _, h := range hits {
		if h > 0 {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("one matrix hit %d backends (%v), want sticky routing to 1", owners, hits)
	}
}

func mustBody(t *testing.T, name string, scale int, x []float64) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"matrix": name, "scale": scale, "x": x})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRouterFailover(t *testing.T) {
	worker := newWorker(t)
	// A dead backend (listener closed) and a draining backend: every
	// attempt at either must fail over to the live worker.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := workerAddr(dead)
	dead.Close()
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer draining.Close()

	backends := []string{deadAddr, workerAddr(draining), workerAddr(worker)}
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string { return backends },
		Attempts: 3,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := gen.Representative("dawson5", 16)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) + 1
	}
	// Many matrices so keys hash across all three candidates.
	for i := 0; i < 12; i++ {
		w, out := postMultiply(t, rt, mustBody(t, "dawson5", 16, x))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body.String())
		}
		if _, ok := out["y"]; !ok {
			t.Fatalf("request %d: no y in %v", i, out)
		}
	}
}

func TestRouterRelaysUpstreamErrors(t *testing.T) {
	worker := newWorker(t)
	backends := []string{workerAddr(worker)}
	rt, err := NewRouter(RouterOptions{Backends: func() []string { return backends }})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown matrix: worker's 404 must pass through, not become a 502.
	w, _ := postMultiply(t, rt, mustBody(t, "no-such-matrix", 16, []float64{1}))
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d for unknown matrix, want 404: %s", w.Code, w.Body.String())
	}
	// Malformed body: rejected at the router.
	w2, _ := postMultiply(t, rt, "{not json")
	if w2.Code != http.StatusBadRequest {
		t.Fatalf("status %d for bad JSON, want 400", w2.Code)
	}
}

// A shard count past server.MaxShardCount is a configuration error,
// refused before the router serves anything.
func TestRouterRejectsShardCountOverMax(t *testing.T) {
	backends := func() []string { return nil }
	if _, err := NewRouter(RouterOptions{Backends: backends, Shards: map[string]int{"dawson5@16": server.MaxShardCount}}); err != nil {
		t.Fatalf("%d shards refused: %v", server.MaxShardCount, err)
	}
	_, err := NewRouter(RouterOptions{Backends: backends, Shards: map[string]int{"dawson5@16": server.MaxShardCount + 1}})
	if err == nil || !strings.Contains(err.Error(), "dawson5@16") {
		t.Fatalf("%d shards: err = %v, want a refusal naming the matrix", server.MaxShardCount+1, err)
	}
}

func TestRouterNoBackends(t *testing.T) {
	rt, err := NewRouter(RouterOptions{Backends: func() []string { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	hw := httptest.NewRecorder()
	rt.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hw.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with no backends, want 503", hw.Code)
	}
	if hw.Header().Get("Retry-After") == "" {
		t.Fatal("healthz 503 without Retry-After")
	}
	w, _ := postMultiply(t, rt, mustBody(t, "dawson5", 16, []float64{1}))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("multiply %d with no backends, want 503", w.Code)
	}
}

func TestRouterScatterGather(t *testing.T) {
	workers := []*httptest.Server{newWorker(t), newWorker(t), newWorker(t)}
	var backends []string
	for _, s := range workers {
		backends = append(backends, workerAddr(s))
	}
	const name, scale, shards = "dawson5", 16, 3
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string { return backends },
		Shards:   map[string]int{fmt.Sprintf("%s@%d", name, scale): shards},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	a := gen.Representative(name, scale)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%11)*0.5
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)

	w, out := postMultiply(t, rt, mustBody(t, name, scale, x))
	if w.Code != http.StatusOK {
		t.Fatalf("scatter multiply: status %d body %s", w.Code, w.Body.String())
	}
	if got := out["shard_count"]; got != float64(shards) {
		t.Fatalf("shard_count %v, want %d", got, shards)
	}
	y := out["y"].([]any)
	if len(y) != a.Rows {
		t.Fatalf("y has %d rows, want %d", len(y), a.Rows)
	}
	for i := range want {
		got := y[i].(float64)
		if diff := math.Abs(got - want[i]); diff > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("row %d: got %v want %v", i, got, want[i])
		}
	}

	// A second call reuses the cached plan and must still agree.
	w2, out2 := postMultiply(t, rt, mustBody(t, name, scale, x))
	if w2.Code != http.StatusOK {
		t.Fatalf("second scatter multiply: status %d", w2.Code)
	}
	y2 := out2["y"].([]any)
	for i := range y {
		if y[i].(float64) != y2[i].(float64) {
			t.Fatalf("row %d: scatter result not reproducible", i)
		}
	}
}

func TestRouterScatterSurvivesWorkerLoss(t *testing.T) {
	workers := []*httptest.Server{newWorker(t), newWorker(t), newWorker(t)}
	var mu sync.Mutex
	backends := []string{workerAddr(workers[0]), workerAddr(workers[1]), workerAddr(workers[2])}
	const name, scale, shards = "dawson5", 16, 2
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), backends...)
		},
		Shards: map[string]int{fmt.Sprintf("%s@%d", name, scale): shards},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := gen.Representative(name, scale)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%5) + 1
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	check := func(tag string) {
		t.Helper()
		w, out := postMultiply(t, rt, mustBody(t, name, scale, x))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", tag, w.Code, w.Body.String())
		}
		y := out["y"].([]any)
		for i := range want {
			if diff := math.Abs(y[i].(float64) - want[i]); diff > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s row %d: got %v want %v", tag, i, y[i], want[i])
			}
		}
	}
	check("before loss")
	// Kill one worker; the ring fails its shards over to survivors.
	workers[1].Close()
	check("after loss")
	// The supervisor notices and shrinks the backend set; still fine.
	mu.Lock()
	backends = []string{workerAddr(workers[0]), workerAddr(workers[2])}
	mu.Unlock()
	check("after backend update")
}

func TestRouterFleetStatus(t *testing.T) {
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string { return []string{"127.0.0.1:1"} },
		Status: func() []WorkerInfo {
			return []WorkerInfo{{Index: 0, Pid: 42, State: StateUp, Addr: "127.0.0.1:1"}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/fleet", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("fleet status %d", w.Code)
	}
	var st struct {
		Workers  []WorkerInfo `json:"workers"`
		Backends []string     `json:"backends"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 1 || st.Workers[0].Pid != 42 || len(st.Backends) != 1 {
		t.Fatalf("bad status: %+v", st)
	}
}

// scriptedWorker is a fake fleet worker: it serves a fixed two-shard
// plan (shard i owns row i and columns [10i, 10i+10)) and hands every
// shard sub-request to multiply, counting the ones that arrive.
type scriptedWorker struct {
	*httptest.Server
	multiplies atomic.Int32
}

func newScriptedWorker(t *testing.T, multiply func(w http.ResponseWriter, r *http.Request, shardIndex int)) *scriptedWorker {
	t.Helper()
	return newPlanWorker(t, []shard.Desc{
		{Index: 0, Count: 2, Row0: 0, Row1: 0, ColLo: 0, ColHi: 10},
		{Index: 1, Count: 2, Row0: 1, Row1: 1, ColLo: 10, ColHi: 20},
	}, multiply)
}

// newPlanWorker is newScriptedWorker serving the given plan instead.
func newPlanWorker(t *testing.T, plan []shard.Desc, multiply func(w http.ResponseWriter, r *http.Request, shardIndex int)) *scriptedWorker {
	t.Helper()
	sw := &scriptedWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shardplan", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"shards": plan})
	})
	mux.HandleFunc("/v1/multiply", func(w http.ResponseWriter, r *http.Request) {
		sw.multiplies.Add(1)
		var req struct {
			ShardIndex int `json:"shard_index"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		multiply(w, r, req.ShardIndex)
	})
	sw.Server = httptest.NewServer(mux)
	t.Cleanup(sw.Close)
	return sw
}

// scatterRouter routes the two-shard matrix "m@1" to one worker over a
// keep-alive-free client, so no idle connection goroutine outlives a
// request and runtime.NumGoroutine can return to its baseline.
func scatterRouter(t *testing.T, worker *scriptedWorker) *Router {
	t.Helper()
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string { return []string{workerAddr(worker.Server)} },
		Shards:   map[string]int{"m@1": 2},
		Client:   &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// settleGoroutines waits for the goroutine count to fall back to base
// and fails the test if it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// An x too short for the plan's column windows is a client error the
// router must catch before any shard sub-request leaves: a 400, no
// sub-request reaching a worker, no goroutine left behind.
func TestRouterScatterShortXSpawnsNothing(t *testing.T) {
	worker := newScriptedWorker(t, func(w http.ResponseWriter, r *http.Request, i int) {
		json.NewEncoder(w).Encode(map[string]any{"y": []float64{1}})
	})
	rt := scatterRouter(t, worker)
	x := make([]float64, 20)
	if w, _ := postMultiply(t, rt, mustBody(t, "m", 1, x)); w.Code != http.StatusOK {
		t.Fatalf("full x: status %d body %s", w.Code, w.Body.String())
	}
	worker.multiplies.Store(0)
	base := runtime.NumGoroutine()

	// 15 elements cover shard 0's window [0, 10) but not shard 1's.
	w, _ := postMultiply(t, rt, mustBody(t, "m", 1, x[:15]))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("short x: status %d, want 400: %s", w.Code, w.Body.String())
	}
	settleGoroutines(t, base)
	if n := worker.multiplies.Load(); n != 0 {
		t.Fatalf("short x: %d shard sub-requests reached the worker, want 0", n)
	}
}

// A shard that fails must cancel its stalled sibling: the router relays
// the failure at once instead of waiting out the sibling, and returns
// only after the sibling's sub-request has exited. Shard 0 fails only
// once shard 1 has reached the worker, so the sibling is in flight, not
// yet unsent, when the cancellation comes.
func TestRouterScatterFailureCancelsSiblings(t *testing.T) {
	var siblingCancelled atomic.Bool
	siblingArrived := make(chan struct{})
	var arrive sync.Once
	worker := newScriptedWorker(t, func(w http.ResponseWriter, r *http.Request, i int) {
		if i == 0 {
			select {
			case <-siblingArrived:
			case <-time.After(5 * time.Second):
			}
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"shard 0 failed"}`))
			return
		}
		arrive.Do(func() { close(siblingArrived) })
		select {
		case <-r.Context().Done():
			siblingCancelled.Store(true)
		case <-time.After(10 * time.Second):
		}
	})
	rt := scatterRouter(t, worker)
	x := make([]float64, 20)
	// Fetch and cache the plan first so the baseline below is taken
	// with the router already warm.
	if _, err := rt.shardPlan(context.Background(), "m@1", "m", 1, 2); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	t0 := time.Now()
	w, _ := postMultiply(t, rt, mustBody(t, "m", 1, x))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want the failing shard's 500: %s", w.Code, w.Body.String())
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("router took %v: the stalled sibling was not cancelled", d)
	}
	if n := worker.multiplies.Load(); n != 2 {
		t.Fatalf("%d shard sub-requests reached the worker, want 2", n)
	}
	settleGoroutines(t, base)
	deadline := time.Now().Add(5 * time.Second)
	for !siblingCancelled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("stalled sibling never saw its request cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A worker plan the router cannot scatter safely — the wrong shard
// count, a negative or inverted column window, a negative or inverted
// row range — is refused with 502 before any shard sub-request leaves,
// and is not cached: the next request asks for the plan again.
func TestRouterScatterRejectsBadPlans(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan []shard.Desc
	}{
		{"one-shard-for-two", []shard.Desc{
			{Index: 0, Count: 1, Row0: 0, Row1: 1, ColLo: 0, ColHi: 20},
		}},
		{"negative-col-lo", []shard.Desc{
			{Index: 0, Count: 2, Row0: 0, Row1: 0, ColLo: -1, ColHi: 10},
			{Index: 1, Count: 2, Row0: 1, Row1: 1, ColLo: 10, ColHi: 20},
		}},
		{"col-lo-above-col-hi", []shard.Desc{
			{Index: 0, Count: 2, Row0: 0, Row1: 0, ColLo: 0, ColHi: 10},
			{Index: 1, Count: 2, Row0: 1, Row1: 1, ColLo: 15, ColHi: 12},
		}},
		{"negative-row0", []shard.Desc{
			{Index: 0, Count: 2, Row0: -1, Row1: 0, ColLo: 0, ColHi: 10},
			{Index: 1, Count: 2, Row0: 1, Row1: 1, ColLo: 10, ColHi: 20},
		}},
		{"row1-below-row0", []shard.Desc{
			{Index: 0, Count: 2, Row0: 0, Row1: 0, ColLo: 0, ColHi: 10},
			{Index: 1, Count: 2, Row0: 2, Row1: 1, ColLo: 10, ColHi: 20},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worker := newPlanWorker(t, tc.plan, func(w http.ResponseWriter, r *http.Request, i int) {
				json.NewEncoder(w).Encode(map[string]any{"y": []float64{1}})
			})
			rt := scatterRouter(t, worker)
			x := make([]float64, 20)
			for attempt := 0; attempt < 2; attempt++ {
				w, _ := postMultiply(t, rt, mustBody(t, "m", 1, x))
				if w.Code != http.StatusBadGateway {
					t.Fatalf("attempt %d: status %d, want 502: %s", attempt, w.Code, w.Body.String())
				}
			}
			if n := worker.multiplies.Load(); n != 0 {
				t.Fatalf("%d shard sub-requests reached the worker, want 0", n)
			}
			rt.planMu.Lock()
			cached := len(rt.plans)
			rt.planMu.Unlock()
			if cached != 0 {
				t.Fatalf("%d bad plans cached, want 0", cached)
			}
		})
	}
}

// Router and worker share one body cap: both refuse a body declared one
// byte over server.MaxBodyBytes with 413 before reading it, and both let
// a body declared at exactly the cap through to the JSON decoder (which
// then rejects the deliberately malformed content with 400).
func TestRouterBodyLimitMatchesWorker(t *testing.T) {
	var upstream atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upstream.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer backend.Close()
	rt, err := NewRouter(RouterOptions{Backends: func() []string { return []string{workerAddr(backend)} }})
	if err != nil {
		t.Fatal(err)
	}
	worker := server.New(server.Config{Machine: amp.IntelI912900KF(), Algorithm: core.New(core.Options{})})
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{{"router", rt}, {"worker", worker}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []struct {
				name string
				size int64
				want int
			}{
				{"at-cap", server.MaxBodyBytes, http.StatusBadRequest},
				{"over-cap", server.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
			} {
				t.Run(c.name, func(t *testing.T) {
					req := httptest.NewRequest(http.MethodPost, "/v1/multiply", strings.NewReader("not json"))
					req.ContentLength = c.size
					w := httptest.NewRecorder()
					tc.h.ServeHTTP(w, req)
					if w.Code != c.want {
						t.Errorf("body of %d bytes: status %d, want %d: %s", c.size, w.Code, c.want, w.Body.String())
					}
				})
			}
		})
	}
	if n := upstream.Load(); n != 0 {
		t.Fatalf("%d rejected bodies were forwarded", n)
	}
}

// A stalled shard cannot hold a request past its timeout_ms: the router
// runs the scatter under that deadline, hands each shard the time that
// is left, answers 504 when it runs out, and leaves no goroutine behind.
func TestRouterScatterForwardsDeadline(t *testing.T) {
	var forwarded sync.Map // shard index -> timeout_ms the shard was sent
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shardplan", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"shards": []shard.Desc{
			{Index: 0, Count: 2, Row0: 0, Row1: 0, ColLo: 0, ColHi: 10},
			{Index: 1, Count: 2, Row0: 1, Row1: 1, ColLo: 10, ColHi: 20},
		}})
	})
	mux.HandleFunc("/v1/multiply", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			TimeoutMs  int `json:"timeout_ms"`
			ShardIndex int `json:"shard_index"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		forwarded.Store(req.ShardIndex, req.TimeoutMs)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	worker := httptest.NewServer(mux)
	defer worker.Close()
	rt, err := NewRouter(RouterOptions{
		Backends: func() []string { return []string{workerAddr(worker)} },
		Shards:   map[string]int{"m@1": 2},
		Client:   &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.shardPlan(context.Background(), "m@1", "m", 1, 2); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	t0 := time.Now()
	w, _ := postMultiply(t, rt, `{"matrix":"m","scale":1,"timeout_ms":100,"x":[`+strings.Repeat("1,", 19)+`1]}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("router answered after %v: the 100ms deadline did not bound the scatter", d)
	}
	settleGoroutines(t, base)
	for i := 0; i < 2; i++ {
		ms, ok := forwarded.Load(i)
		if !ok || ms.(int) < 1 || ms.(int) > 100 {
			t.Fatalf("shard %d was sent timeout_ms %v, want the remaining 1..100", i, ms)
		}
	}
}

// A timeout_ms too large to be a time.Duration in nanoseconds bounds a
// routed request by a long deadline, unsharded and scattered, where an
// overflowed one would expire at once (504).
func TestRouterLargeTimeoutIsALongDeadline(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("timeout_ms past the int range of a 32-bit build is a 400")
	}
	const name, scale = "dawson5", 16
	backends := []string{workerAddr(newWorker(t)), workerAddr(newWorker(t))}
	x := make([]float64, gen.Representative(name, scale).Cols)
	xs, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		rt, err := NewRouter(RouterOptions{
			Backends: func() []string { return backends },
			Shards:   map[string]int{fmt.Sprintf("%s@%d", name, scale): shards},
			Logf:     t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ms := range []string{"9223372036854775", "4611686018427387904"} {
			body := fmt.Sprintf(`{"matrix":%q,"scale":%d,"timeout_ms":%s,"x":%s}`, name, scale, ms, xs)
			if w, _ := postMultiply(t, rt, body); w.Code != http.StatusOK {
				t.Fatalf("%d shard(s), timeout_ms %s: status %d (%.80s), want 200", shards, ms, w.Code, w.Body.String())
			}
		}
	}
}

// A y that JSON cannot carry fails loudly instead of arriving as an
// empty 200: a worker's non-finite y is relayed as its 422, and a
// gather whose split-row partial sums overflow is the router's own 422.
func TestRouterNonFiniteYIs422(t *testing.T) {
	check := func(t *testing.T, w *httptest.ResponseRecorder, out map[string]any) {
		t.Helper()
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d (%d-byte body), want 422", w.Code, w.Body.Len())
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, "row") {
			t.Fatalf("422 body %s does not name the row", w.Body.String())
		}
	}
	t.Run("worker", func(t *testing.T) {
		worker := newWorker(t)
		rt, err := NewRouter(RouterOptions{Backends: func() []string { return []string{workerAddr(worker)} }})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, gen.Representative("dawson5", 16).Cols)
		for i := range x {
			x[i] = 1.7e308
		}
		w, out := postMultiply(t, rt, mustBody(t, "dawson5", 16, x))
		check(t, w, out)
	})
	t.Run("gather", func(t *testing.T) {
		// Both shards hold part of row 0; each partial sum is finite.
		worker := newPlanWorker(t, []shard.Desc{
			{Index: 0, Count: 2, Row0: 0, Row1: 0, ColLo: 0, ColHi: 10},
			{Index: 1, Count: 2, Row0: 0, Row1: 0, ColLo: 10, ColHi: 20},
		}, func(w http.ResponseWriter, r *http.Request, i int) {
			json.NewEncoder(w).Encode(map[string]any{"y": []float64{1.7e308}})
		})
		rt := scatterRouter(t, worker)
		w, out := postMultiply(t, rt, mustBody(t, "m", 1, make([]float64, 20)))
		check(t, w, out)
	})
}
