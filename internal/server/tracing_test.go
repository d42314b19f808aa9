package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"haspmv/internal/gen"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

// isRequestID reports whether s looks like a tracing request id: exactly
// 16 lowercase hex digits.
func isRequestID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// syncWriter is a mutex-guarded buffer for the access log: the server
// writes log lines after the response is already on the wire, so the
// test must synchronize (and poll) rather than read a bare buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The tentpole's serving-side hard requirement: attaching a trace to a
// Submit adds zero allocations over the untraced path — the flush
// pipeline only fills preallocated fields.
func TestBatcherTracingAddsNoAllocations(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry enabled by another test")
	}
	a, prep := prepareRepresentative(t, "dawson5", 64)
	b := NewBatcher(prep, BatcherOptions{Linger: ExplicitZeroLinger})
	defer b.Close()

	ctx := context.Background()
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) / 8
	}
	y := make([]float64, a.Rows)
	if _, err := b.Submit(ctx, y, x); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(200, func() { b.Submit(ctx, y, x) })

	tr := &tracing.Trace{ID: "warm"}
	if _, err := b.SubmitTraced(ctx, y, x, tr); err != nil {
		t.Fatal(err)
	}
	traced := testing.AllocsPerRun(200, func() {
		*tr = tracing.Trace{ID: "run"}
		b.SubmitTraced(ctx, y, x, tr)
	})
	if traced > base+0.1 {
		t.Fatalf("traced Submit allocates %.1f/op vs %.1f/op untraced — tracing must add nothing", traced, base)
	}
	if tr.TotalNs <= 0 || tr.StageSumNs() != tr.TotalNs {
		t.Fatalf("trace stages %d != total %d after traced Submit", tr.StageSumNs(), tr.TotalNs)
	}
}

// Every response echoes X-Request-ID: propagated when the client sent
// one, generated otherwise — on success and on every error path.
func TestServeRequestIDEcho(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderOptions{})
	_, ts := newTestServer(t, Config{DefaultScale: 64, Recorder: rec})

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	body, _ := json.Marshal(multiplyRequest{Matrix: "dawson5", X: x})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/multiply", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-chose-this-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "client-chose-this-id" {
		t.Fatalf("X-Request-ID = %q, want the propagated client id", got)
	}

	resp, _ = postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
	if id := resp.Header.Get("X-Request-ID"); !isRequestID(id) {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex digits", id)
	}

	// Error paths echo too: 404 (unknown matrix), 400 (bad x length),
	// 405 (wrong method).
	resp, _ = postMultiply(t, ts.URL, multiplyRequest{Matrix: "no-such", X: x})
	if resp.StatusCode != http.StatusNotFound || !isRequestID(resp.Header.Get("X-Request-ID")) {
		t.Fatalf("404 response: status %d, X-Request-ID %q", resp.StatusCode, resp.Header.Get("X-Request-ID"))
	}
	resp, _ = postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: []float64{1}})
	if resp.StatusCode != http.StatusBadRequest || !isRequestID(resp.Header.Get("X-Request-ID")) {
		t.Fatalf("400 response: status %d, X-Request-ID %q", resp.StatusCode, resp.Header.Get("X-Request-ID"))
	}
	getResp, err := http.Get(ts.URL + "/v1/multiply")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed || !isRequestID(getResp.Header.Get("X-Request-ID")) {
		t.Fatalf("405 response: status %d, X-Request-ID %q", getResp.StatusCode, getResp.Header.Get("X-Request-ID"))
	}

	// The recorder saw the error traces with their status and error.
	snap := rec.Snapshot("")
	var saw404 bool
	for _, tr := range snap.Traces {
		if tr.Status == http.StatusNotFound && tr.Err != "" {
			saw404 = true
		}
	}
	if !saw404 {
		t.Fatalf("no 404 trace with error in recorder: %d traces", len(snap.Traces))
	}
}

// The access log emits one structured line per request, with
// stage-attributed latency for traced multiplies.
func TestServeAccessLog(t *testing.T) {
	logw := &syncWriter{}
	rec := tracing.NewRecorder(tracing.RecorderOptions{})
	_, ts := newTestServer(t, Config{DefaultScale: 64, Recorder: rec, AccessLog: logw})

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()

	// The log line lands after the response is written; poll for it.
	waitFor(t, 2*time.Second, func() bool {
		s := logw.String()
		return strings.Contains(s, "path=/v1/multiply") && strings.Contains(s, "path=/healthz")
	}, "access log lines")

	var multiplyLine, healthLine string
	for _, line := range strings.Split(strings.TrimSpace(logw.String()), "\n") {
		switch {
		case strings.Contains(line, "path=/v1/multiply"):
			multiplyLine = line
		case strings.Contains(line, "path=/healthz"):
			healthLine = line
		}
	}
	for _, want := range []string{
		"method=POST", "status=200", "matrix=dawson5@64",
		"queue_us=", "linger_us=", "compute_us=", "merge_us=", "batch_nv=1",
		"id=" + resp.Header.Get("X-Request-ID"),
	} {
		if !strings.Contains(multiplyLine, want) {
			t.Fatalf("multiply access line %q missing %q", multiplyLine, want)
		}
	}
	if !strings.Contains(healthLine, "method=GET") || strings.Contains(healthLine, "matrix=") {
		t.Fatalf("healthz access line %q: want method=GET and no stage fields", healthLine)
	}
}

// /v1/debug/flightrecorder serves the ring on demand, 404s when tracing
// is off, and serves the last anomaly snapshot with ?anomaly=last.
func TestFlightRecorderEndpoint(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderOptions{})
	_, ts := newTestServer(t, Config{DefaultScale: 64, Recorder: rec})

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	const reqs = 3
	for i := 0; i < reqs; i++ {
		resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight recorder status %d", resp.StatusCode)
	}
	var snap tracing.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("bad snapshot body: %v", err)
	}
	if snap.Reason != "on-demand" || snap.TotalTraces < reqs || len(snap.Traces) < reqs {
		t.Fatalf("snapshot reason=%q total=%d retained=%d, want on-demand with >= %d traces",
			snap.Reason, snap.TotalTraces, len(snap.Traces), reqs)
	}
	for _, tr := range snap.Traces {
		if !isRequestID(tr.ID) {
			t.Fatalf("trace id %q not a request id", tr.ID)
		}
		if tr.Matrix != "dawson5@64" || tr.Status != http.StatusOK {
			t.Fatalf("trace %+v: want matrix dawson5@64, status 200", tr)
		}
	}

	// No anomaly yet.
	resp2, err := http.Get(ts.URL + "/v1/debug/flightrecorder?anomaly=last")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("?anomaly=last before any anomaly: status %d, want 404", resp2.StatusCode)
	}

	// Tracing disabled: the endpoint 404s.
	_, tsOff := newTestServer(t, Config{DefaultScale: 64})
	resp3, err := http.Get(tsOff.URL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("flight recorder with tracing off: status %d, want 404", resp3.StatusCode)
	}
}

// The integration contract under concurrent load: every served trace's
// four stages sum exactly to its end-to-end latency, and the flush
// linkage (width, cause, core fan-out, format split) is populated.
func TestServeTracedStagesSumUnderLoad(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderOptions{Traces: 1024})
	_, ts := newTestServer(t, Config{DefaultScale: 16, Recorder: rec})

	a := gen.Representative("rma10", 16)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%13) / 4
	}
	body, _ := json.Marshal(multiplyRequest{Matrix: "rma10", Scale: 16, X: x})

	const clients = 64
	const perClient = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// A handler records its trace after writing the response, so the
	// last few records can trail the clients by a moment.
	snap := rec.Snapshot("")
	for deadline := time.Now().Add(2 * time.Second); int(snap.TotalTraces) < clients*perClient && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		snap = rec.Snapshot("")
	}
	if int(snap.TotalTraces) != clients*perClient {
		t.Fatalf("recorded %d traces, want %d", snap.TotalTraces, clients*perClient)
	}
	var coalesced int
	for _, tr := range snap.Traces {
		if tr.Status != http.StatusOK {
			t.Fatalf("trace %s status %d: %s", tr.ID, tr.Status, tr.Err)
		}
		if tr.TotalNs <= 0 || tr.StageSumNs() != tr.TotalNs {
			t.Fatalf("trace %s: stages %d+%d+%d+%d != total %d",
				tr.ID, tr.QueueNs, tr.LingerNs, tr.ComputeNs, tr.MergeNs, tr.TotalNs)
		}
		if tr.ComputeNs <= 0 {
			t.Fatalf("trace %s: ComputeNs = %d, served requests must attribute kernel time", tr.ID, tr.ComputeNs)
		}
		if tr.BatchNV < 1 {
			t.Fatalf("trace %s: BatchNV = %d", tr.ID, tr.BatchNV)
		}
		if tr.BatchNV > 1 {
			coalesced++
		}
		switch tr.FlushCause {
		case "full", "linger", "drain":
		default:
			t.Fatalf("trace %s: FlushCause %q", tr.ID, tr.FlushCause)
		}
		if tr.Cores < 1 || tr.MaxCoreNs < 1 {
			t.Fatalf("trace %s: Cores=%d MaxCoreNs=%d, want per-core linkage", tr.ID, tr.Cores, tr.MaxCoreNs)
		}
		var nnz int64
		for _, n := range tr.NNZByFormat {
			nnz += n
		}
		if nnz != int64(a.NNZ()) {
			t.Fatalf("trace %s: NNZByFormat sums to %d, want %d", tr.ID, nnz, a.NNZ())
		}
		if !isRequestID(tr.ID) {
			t.Fatalf("trace id %q not a request id", tr.ID)
		}
	}
	if coalesced == 0 {
		t.Fatalf("64 concurrent clients never coalesced — traces: %d", len(snap.Traces))
	}
}

// A shed spike (>= 8 queue-full rejections inside a second) snapshots
// the flight recorder, retrievable at ?anomaly=last with the pre-spike
// traces intact.
func TestShedSpikeAnomalySnapshot(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderOptions{})
	srv, ts := newTestServer(t, Config{
		DefaultScale: 64,
		Recorder:     rec,
		Registry: RegistryOptions{
			Batcher: BatcherOptions{QueueCap: 1, Linger: 40 * time.Millisecond},
		},
	})

	a := gen.Representative("dawson5", 64)
	x := make([]float64, a.Cols)
	// Seed the ring with a healthy trace so the anomaly snapshot carries
	// stage-attributed context, not just the rejections.
	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, body)
	}

	// Overrun the 1-deep queue until the spike trips. The long linger
	// keeps the dispatcher holding its window open so concurrent submits
	// pile onto the queue cap.
	reqBody, _ := json.Marshal(multiplyRequest{Matrix: "dawson5", X: x})
	deadline := time.Now().Add(10 * time.Second)
	for rec.LastAnomaly() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("no anomaly after sustained overload (anomalies=%d)", rec.Anomalies())
		}
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(reqBody))
				if err == nil {
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
	}

	hresp, err := http.Get(ts.URL + "/v1/debug/flightrecorder?anomaly=last")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("?anomaly=last status %d", hresp.StatusCode)
	}
	var snap tracing.Snapshot
	if err := json.NewDecoder(hresp.Body).Decode(&snap); err != nil {
		t.Fatalf("bad anomaly snapshot: %v", err)
	}
	if snap.Reason != "shed-spike" {
		t.Fatalf("anomaly reason %q, want shed-spike", snap.Reason)
	}
	var healthy *tracing.Trace
	for i := range snap.Traces {
		if snap.Traces[i].Status == http.StatusOK {
			healthy = &snap.Traces[i]
			break
		}
	}
	if healthy == nil {
		t.Fatalf("anomaly snapshot holds no healthy trace among %d", len(snap.Traces))
	}
	if !isRequestID(healthy.ID) || healthy.StageSumNs() != healthy.TotalNs || healthy.ComputeNs <= 0 {
		t.Fatalf("healthy trace in snapshot inconsistent: %+v", healthy)
	}
	_ = srv
}
