package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"haspmv"
	"haspmv/internal/core"
	"haspmv/internal/gen"
	"haspmv/internal/server"
	"haspmv/internal/telemetry/tracing"
)

// The HTTP workloads multiply webbase-1M@8 (about 125k columns, so each
// JSON x is about 2.4 MB) from two closed-loop clients, one connection
// each.
const (
	wireMatrix   = "webbase-1M"
	wireScale    = 8
	wirePatterns = 4
	wireClients  = 2
)

// wireInputs are the pre-encoded request bodies of an HTTP workload and
// the local whole-matrix reference of each.
type wireInputs struct {
	scale      int
	rows, cols int
	bodies     [][]byte
	// local[p] is the JSON encoding of core.New(Options{}).Prepare +
	// Compute of the generated matrix for the x in bodies[p]. The server
	// encodes y with the same encoder, whose shortest round-trip float
	// format is a function of the bits, so equal bytes mean a
	// bit-identical y and the client never decodes the response.
	local [][]byte
}

// multiplyRequest is the production JSON request body.
type multiplyRequest struct {
	Matrix string    `json:"matrix"`
	Scale  int       `json:"scale"`
	X      []float64 `json:"x"`
}

func newWireInputs(cfg config, m *haspmv.Machine) (*wireInputs, error) {
	scale := wireScale
	if cfg.small {
		// Like wireScale, a scale whose two shard keys the fleet's ring
		// places on separate backends (see fleetBackends).
		scale = 384
	}
	a := gen.Representative(wireMatrix, scale)
	p, err := core.New(core.Options{}).Prepare(m, a)
	if err != nil {
		return nil, fmt.Errorf("reference prepare: %w", err)
	}
	in := &wireInputs{scale: scale, rows: a.Rows, cols: a.Cols}
	rng := rand.New(rand.NewSource(cfg.seed*16 + 7))
	for k := 0; k < wirePatterns; k++ {
		x := seededVector(rng, a.Cols)
		body, err := json.Marshal(multiplyRequest{Matrix: wireMatrix, Scale: scale, X: x})
		if err != nil {
			return nil, err
		}
		y := make([]float64, a.Rows)
		p.Compute(y, x)
		want, err := json.Marshal(y)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.local = append(in.local, want)
	}
	return in, nil
}

// pattern picks the body of client c's i-th op.
func (in *wireInputs) pattern(c, i int) int { return (i*wireClients + c) % len(in.bodies) }

// opID is the X-Request-ID of client c's i-th op; the traced pass joins
// client, handler and flight-recorder records on it.
func opID(c, i int) string { return fmt.Sprintf("perfbench-c%d-%d", c, i) }

// postMultiply sends body and returns the latency stamped at the last
// response byte, the response size and the response's y array as JSON
// (aliasing buf). Extracting y runs after the stamp.
func postMultiply(hc *http.Client, url string, body []byte, id string, buf *bytes.Buffer) (time.Duration, int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return time.Since(t0), 0, nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, 0, nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := buf.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return lat, buf.Len(), nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	y, err := yField(buf.Bytes())
	return lat, buf.Len(), y, err
}

// yField returns the JSON array of a multiply response's "y" field.
func yField(body []byte) ([]byte, error) {
	i := bytes.Index(body, []byte(`"y":[`))
	if i < 0 {
		return nil, errors.New("response has no y array")
	}
	j := bytes.IndexByte(body[i:], ']')
	if j < 0 {
		return nil, errors.New("response y array is not closed")
	}
	return body[i+4 : i+j+1], nil
}

// checkY reports where y differs from want.
func checkY(y, want []byte, what string) error {
	if bytes.Equal(y, want) {
		return nil
	}
	k := 0
	for k < len(y) && k < len(want) && y[k] == want[k] {
		k++
	}
	return fmt.Errorf("y differs from %s at byte %d", what, k)
}

// corruptJSON flips the lowest bit of the first value of a JSON y array,
// for the failure-accounting test.
func corruptJSON(y []byte) []byte {
	var v []float64
	if err := json.Unmarshal(y, &v); err != nil || len(v) == 0 {
		panic("corruptJSON: not a non-empty float array")
	}
	v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1)
	out, _ := json.Marshal(v)
	return out
}

// wireOp is one measured op of a traced HTTP pass.
type wireOp struct {
	id        string
	latNs     int64
	reqBytes  int
	respBytes int
}

// setWireBytes prints the mean request and response body sizes of a
// traced HTTP pass. Both HTTP workloads send the same bodies, so the
// first pass of a traced run (the selected workload's, when it is one of
// them) sets wire.* and later passes keep it.
func setWireBytes(ms metrics, reqBytes, respBytes []float64) {
	if _, ok := ms["wire.request_bytes"]; ok {
		return
	}
	ms.set("wire.request_bytes", "B", mean(reqBytes))
	ms.set("wire.response_bytes", "B", mean(respBytes))
}

// newClient builds an HTTP client for loopback traffic: no proxy, one
// kept-alive connection per closed-loop caller.
func newClient(dial func(ctx context.Context, network, addr string) (net.Conn, error)) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         dial,
			MaxIdleConnsPerHost: 2 * wireClients,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// httpService is one loopback listener serving a handler.
type httpService struct {
	ln   net.Listener
	hs   *http.Server
	done chan struct{}
}

func serveOn(h http.Handler) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{ln: ln, hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *httpService) addr() string { return s.ln.Addr().String() }

// close stops the listener, waits for in-flight handlers, and waits for
// the serve goroutine to exit.
func (s *httpService) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// serverProc is one in-process server.Server on a loopback listener.
// Traced, it records into a flight recorder and behind a handlerLog.
type serverProc struct {
	srv  *server.Server
	svc  *httpService
	hlog *handlerLog
}

// startServer builds the production server with the default registry and
// batcher options and serves it on a fresh loopback listener.
func startServer(m *haspmv.Machine, defaultScale int, traced bool) (*serverProc, error) {
	cfg := server.Config{Machine: m, Algorithm: core.New(core.Options{}), DefaultScale: defaultScale}
	if traced {
		cfg.Recorder = tracing.NewRecorder(tracing.RecorderOptions{Traces: 1 << 16})
	}
	p := &serverProc{srv: server.New(cfg)}
	var h http.Handler = p.srv
	if traced {
		p.hlog = newHandlerLog(p.srv)
		h = p.hlog
	}
	svc, err := serveOn(h)
	if err != nil {
		return nil, err
	}
	p.svc = svc
	return p, nil
}

func (p *serverProc) base() string { return "http://" + p.svc.addr() }

// stop closes the listener, waits for in-flight handlers, then drains
// the batchers.
func (p *serverProc) stop() {
	p.svc.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p.srv.Drain(ctx)
}

// handlerLog is the benchmark's timing wrapper around a layer's
// ServeHTTP: it records each multiply's handler time and request body
// size by request ID.
type handlerLog struct {
	next http.Handler
	mu   sync.Mutex
	recs map[string][]handlerRec
}

type handlerRec struct {
	ns    int64
	bytes int64
}

func newHandlerLog(next http.Handler) *handlerLog {
	return &handlerLog{next: next, recs: map[string][]handlerRec{}}
}

func (h *handlerLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/multiply" {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	id := r.Header.Get("X-Request-ID")
	h.mu.Lock()
	h.recs[id] = append(h.recs[id], handlerRec{ns: int64(d), bytes: r.ContentLength})
	h.mu.Unlock()
}

func (h *handlerLog) get(id string) []handlerRec {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recs[id]
}

// getJSON fetches url into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchTraces reads a server's flight recorder over
// /v1/debug/flightrecorder, keyed by request ID.
func fetchTraces(hc *http.Client, base string) (map[string][]tracing.Trace, error) {
	var snap tracing.Snapshot
	if err := getJSON(hc, base+"/v1/debug/flightrecorder", &snap); err != nil {
		return nil, err
	}
	out := map[string][]tracing.Trace{}
	for _, t := range snap.Traces {
		out[t.ID] = append(out[t.ID], t)
	}
	return out, nil
}

// residentEntry is the part of a /v1/matrices entry the benchmark reads.
type residentEntry struct {
	Key       string `json:"key"`
	Flushes   int64  `json:"flushes"`
	Coalesced int64  `json:"coalesced"`
	Solo      int64  `json:"solo"`
	Shed      int64  `json:"shed"`
	Expired   int64  `json:"expired"`
}

func fetchResident(hc *http.Client, base string) ([]residentEntry, error) {
	var out struct {
		Resident []residentEntry `json:"resident"`
	}
	err := getJSON(hc, base+"/v1/matrices", &out)
	return out.Resident, err
}

// stageStats accumulates flight-recorder stage times of traced requests
// and checks that each request's stage sum fits inside its handler time.
type stageStats struct {
	queue, linger, compute, merge, handler []float64
	problems                               []string
}

// add records the traces and handler times of one request ID. Every
// handler record needs a trace, and the largest stage sum must not
// exceed the largest handler time.
func (s *stageStats) add(id string, traces []tracing.Trace, recs []handlerRec) {
	if len(traces) != len(recs) {
		s.problems = append(s.problems, fmt.Sprintf("%s: %d handler records, %d traces", id, len(recs), len(traces)))
		return
	}
	var maxSum, maxHandler int64
	for _, t := range traces {
		s.queue = append(s.queue, float64(t.QueueNs)/1e6)
		s.linger = append(s.linger, float64(t.LingerNs)/1e6)
		s.compute = append(s.compute, float64(t.ComputeNs)/1e6)
		s.merge = append(s.merge, float64(t.MergeNs)/1e6)
		if sum := t.StageSumNs(); sum > maxSum {
			maxSum = sum
		}
	}
	for _, r := range recs {
		s.handler = append(s.handler, float64(r.ns)/1e6)
		if r.ns > maxHandler {
			maxHandler = r.ns
		}
	}
	if maxSum > maxHandler {
		s.problems = append(s.problems, fmt.Sprintf("%s: stage sum %d ns exceeds handler %d ns", id, maxSum, maxHandler))
	}
}

// set prints the stage means under prefix (server. or fleet.worker_).
func (s *stageStats) set(ms metrics, prefix string) {
	ms.set(prefix+"handler_ms", "ms", mean(s.handler))
	ms.set(prefix+"queue_ms", "ms", mean(s.queue))
	ms.set(prefix+"linger_ms", "ms", mean(s.linger))
	ms.set(prefix+"compute_ms", "ms", mean(s.compute))
	ms.set(prefix+"merge_ms", "ms", mean(s.merge))
}

// stageSum is the mean recorder stage sum per request.
func (s *stageStats) stageSum() float64 {
	return mean(s.queue) + mean(s.linger) + mean(s.compute) + mean(s.merge)
}
