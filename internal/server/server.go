package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/fleet/shard"
	"haspmv/internal/gen"
	"haspmv/internal/telemetry/tracing"
)

// Config assembles a serving stack.
type Config struct {
	// Machine is the AMP model matrices are prepared for. Required.
	Machine *amp.Machine
	// Algorithm prepares matrices; required (cmd/haspmv-serve passes
	// core.New, the HASpMV algorithm).
	Algorithm exec.Algorithm
	// Registry tunes the prepared-matrix cache and per-matrix batchers.
	Registry RegistryOptions
	// DefaultScale is used when a request omits "scale". Default 16, the
	// test-friendly divisor used across the harness.
	DefaultScale int
	// DefaultTimeout bounds requests that carry no timeout_ms. Default 2s.
	DefaultTimeout time.Duration
	// RetryAfter is the hint returned with 429/503 responses, in seconds.
	// Default 1.
	RetryAfter int
	// Recorder enables per-request tracing: every multiply's span record
	// (queue/compute/merge stages, flush linkage)
	// lands here on completion, retrievable at /v1/debug/flightrecorder
	// and snapshotted automatically on anomaly. nil disables tracing;
	// request IDs are still generated and echoed.
	Recorder *tracing.Recorder
	// SLO is the per-request latency objective backing the p99-over-SLO
	// anomaly trigger: more than 1% of a sliding request window finishing
	// over SLO snapshots the flight recorder. Zero disables the trigger.
	SLO time.Duration
	// AccessLog, when non-nil, receives one structured line per request
	// (method, path, status, request id, duration, and for multiplies the
	// matrix and stage-attributed latency). Wired to -access-log on
	// haspmv-serve.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.DefaultScale <= 0 {
		c.DefaultScale = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	return c
}

// Server is the HTTP/JSON SpMV service:
//
//	POST /v1/multiply   {"matrix","scale","x","timeout_ms"} -> {"y",...}
//	GET  /v1/matrices   resident prepared matrices and batcher stats
//	GET  /healthz       200 serving / 503 draining
//
// Requests for the same matrix are coalesced by the per-matrix Batcher;
// overload is shed with 429 + Retry-After, and Drain stops intake before
// flushing in-flight work for a graceful shutdown.
type Server struct {
	cfg     Config
	reg     *Registry
	mux     *http.ServeMux
	anomaly *anomalyPolicy

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// New builds a Server. It panics if Machine or Algorithm is missing
// (wiring bug, not a runtime condition).
func New(cfg Config) *Server {
	if cfg.Machine == nil || cfg.Algorithm == nil {
		panic("server: Config.Machine and Config.Algorithm are required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(cfg.Machine, cfg.Algorithm, cfg.Registry),
		mux:     http.NewServeMux(),
		anomaly: &anomalyPolicy{rec: cfg.Recorder, sloNs: int64(cfg.SLO)},
	}
	s.mux.HandleFunc("/v1/multiply", s.handleMultiply)
	s.mux.HandleFunc("/v1/shardplan", s.handleShardPlan)
	s.mux.HandleFunc("/v1/matrices", s.handleMatrices)
	s.mux.HandleFunc("/v1/debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Mux returns the server's mux so callers can mount extra handlers
// (cmd/haspmv-serve adds telemetry.RegisterHandlers) before listening.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// ServeHTTP implements http.Handler: it assigns or propagates the
// request id (echoed as X-Request-ID on every response, error paths
// included), tracks in-flight requests so Drain can wait for them, and
// emits the access log line after the handler finishes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = tracing.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	if s.cfg.AccessLog != nil {
		defer func() { s.writeAccessLog(sw, r, reqID, time.Since(start)) }()
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// /healthz stays reachable so load balancers see the drain.
		if r.URL.Path == "/healthz" {
			s.handleHealthz(sw, r)
			return
		}
		s.reject(sw, http.StatusServiceUnavailable, "draining")
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	s.mux.ServeHTTP(sw, r)
}

// statusWriter remembers the response status for the access log and the
// trace record, and carries the multiply handler's trace out to the
// logger so the access line can attribute latency to stages.
type statusWriter struct {
	http.ResponseWriter
	code int
	tr   *tracing.Trace
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// writeAccessLog emits one logfmt line per request. Stage fields appear
// when the request was a traced multiply.
func (s *Server) writeAccessLog(sw *statusWriter, r *http.Request, reqID string, dur time.Duration) {
	if tr := sw.tr; tr != nil {
		fmt.Fprintf(s.cfg.AccessLog,
			"method=%s path=%s status=%d id=%s dur_us=%d matrix=%s queue_us=%d compute_us=%d merge_us=%d batch_nv=%d\n",
			r.Method, r.URL.Path, sw.status(), reqID, dur.Microseconds(),
			tr.Matrix, tr.QueueNs/1e3, tr.ComputeNs/1e3, tr.MergeNs/1e3, tr.BatchNV)
		return
	}
	fmt.Fprintf(s.cfg.AccessLog, "method=%s path=%s status=%d id=%s dur_us=%d\n",
		r.Method, r.URL.Path, sw.status(), reqID, dur.Microseconds())
}

// Preload builds registry entries ahead of traffic (the -preload flag).
func (s *Server) Preload(ctx context.Context, name string, scale int) error {
	if scale <= 0 {
		scale = s.cfg.DefaultScale
	}
	_, err := s.reg.Get(ctx, name, scale)
	return err
}

// Drain performs a graceful shutdown: stop accepting requests, wait for
// in-flight handlers, then flush and stop every batcher. It returns
// ctx's error if the deadline expires first (batcher queues are bounded,
// so the flush itself terminates).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.reg.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

type errorResponse struct {
	Error string `json:"error"`
}

type matrixInfo struct {
	Key       string  `json:"key"`
	Matrix    string  `json:"matrix"`
	Scale     int     `json:"scale"`
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	NNZ       int     `json:"nnz"`
	Shard     string  `json:"shard,omitempty"`
	PrepareMs float64 `json:"prepare_ms"`
	// FromStore marks an entry cold-started from the prepared-matrix
	// store (PrepareMs is then the mmap+restore time, not a Prepare).
	FromStore bool  `json:"from_store,omitempty"`
	Requests  int64 `json:"requests"`
	Flushes   int64 `json:"flushes"`
	Coalesced int64 `json:"coalesced"`
	Solo      int64 `json:"solo"`
	Shed      int64 `json:"shed"`
	Expired   int64 `json:"expired"`
}

// shardLabel renders a shard desc as "i/n" for listings ("" for a
// whole-matrix entry).
func shardLabel(d shard.Desc) string {
	if d.Count <= 1 {
		return ""
	}
	return fmt.Sprintf("%d/%d", d.Index, d.Count)
}

type matricesResponse struct {
	Known    []string     `json:"known"`
	Resident []matrixInfo `json:"resident"`
}

// MaxBodyBytes caps a /v1/multiply request body, at the worker and at
// the fleet router alike, so a body that works direct also works
// through the fleet. A scale-1 circuit5M x vector is ~45MB of JSON
// floats; 256MB leaves headroom while still bounding a hostile body.
const MaxBodyBytes = 256 << 20

// MaxShardCount caps the shard count of /v1/shardplan and of a shard
// multiply, and of the fleet router's -shard configuration. Planning
// allocates per shard before any other check, so an unbounded count
// would let one request exhaust the worker's memory.
const MaxShardCount = 64

func (s *Server) reject(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.cfg.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	var tr *tracing.Trace
	if s.cfg.Recorder != nil {
		// One span record per request, allocated at admission on the
		// handler path (which already allocates the request's matrix
		// name); the flush path only fills preallocated fields. It is
		// handed to the recorder exactly once, after the status is known —
		// never mutated afterwards, as the lock-free snapshot reader
		// requires.
		tr = &tracing.Trace{ID: w.Header().Get("X-Request-ID"), Start: time.Now()}
		if tr.ID == "" {
			// Mounted without the ServeHTTP wrapper (direct mux use).
			tr.ID = tracing.NewRequestID()
			w.Header().Set("X-Request-ID", tr.ID)
		}
		if sw, ok := w.(*statusWriter); ok {
			sw.tr = tr
		}
		defer s.finishTrace(w, tr)
	}
	if r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// A declared oversize body is refused before any of it is read.
	if r.ContentLength > MaxBodyBytes {
		s.reject(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes))
		return
	}
	wb := GetWireBuf()
	defer wb.Release()
	body, err := wb.ReadBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength)
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			s.reject(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes))
			return
		}
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var req MultiplyRequest
	if err := wb.DecodeRequest(body, &req); err != nil {
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Matrix == "" {
		s.reject(w, http.StatusBadRequest, `missing "matrix"`)
		return
	}
	if req.Scale < 0 {
		s.reject(w, http.StatusBadRequest, `"scale" must be >= 1`)
		return
	}
	if req.Scale == 0 {
		req.Scale = s.cfg.DefaultScale
	}
	timeout := s.cfg.DefaultTimeout
	if t := req.Timeout(); t > 0 {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if req.ShardCount < 0 || req.ShardCount > MaxShardCount ||
		(req.ShardCount > 0 && (req.ShardIndex < 0 || req.ShardIndex >= req.ShardCount)) {
		s.reject(w, http.StatusBadRequest,
			fmt.Sprintf("shard %d/%d out of range (count at most %d)", req.ShardIndex, req.ShardCount, MaxShardCount))
		return
	}
	if tr != nil {
		tr.Matrix = ShardKey(req.Matrix, req.Scale, req.ShardIndex, req.ShardCount)
	}
	e, err := s.reg.GetShard(ctx, req.Matrix, req.Scale, req.ShardIndex, req.ShardCount)
	if err != nil {
		if tr != nil {
			tr.Err = err.Error()
		}
		switch {
		case errors.Is(err, ErrUnknownMatrix):
			s.reject(w, http.StatusNotFound, err.Error())
		case errors.Is(err, ErrMatrixTooLarge):
			s.reject(w, http.StatusRequestEntityTooLarge, err.Error())
		case errors.Is(err, ErrDraining):
			s.reject(w, http.StatusServiceUnavailable, "draining")
		case errors.Is(err, context.DeadlineExceeded):
			s.reject(w, http.StatusGatewayTimeout, "deadline expired while preparing matrix")
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
		default:
			s.reject(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	if len(req.X) != e.Cols {
		s.reject(w, http.StatusBadRequest,
			fmt.Sprintf("x has length %d, %s needs %d", len(req.X), e.Key, e.Cols))
		return
	}

	y := wb.Floats(e.Rows)
	nv, err := e.Batcher.SubmitTraced(ctx, y, req.X, tr)
	if err != nil {
		if tr != nil {
			tr.Err = err.Error()
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			s.anomaly.onShed()
			s.reject(w, http.StatusTooManyRequests, "queue full, retry later")
		case errors.Is(err, ErrDraining):
			s.reject(w, http.StatusServiceUnavailable, "draining")
		case errors.Is(err, context.DeadlineExceeded):
			s.reject(w, http.StatusGatewayTimeout, "deadline expired in queue")
		case errors.Is(err, context.Canceled):
			// Client went away.
		default:
			s.reject(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	resp := MultiplyResponse{
		Matrix: req.Matrix, Scale: req.Scale,
		Rows: e.Rows, Cols: e.Cols, BatchNV: nv, Y: y,
	}
	if e.Shard.Count > 1 {
		resp.ShardIndex = e.Shard.Index
		resp.ShardCount = e.Shard.Count
		resp.Row0 = e.Shard.Row0
	}
	out, err := wb.EncodeResponse(&resp)
	if err != nil {
		if tr != nil {
			tr.Err = err.Error()
		}
		s.reject(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	WriteJSON(w, out)
}

// handleShardPlan serves the deterministic shard plan of a matrix:
//
//	GET /v1/shardplan?matrix=NAME&scale=S&count=N
//
// The router fetches this once per sharded matrix to learn each shard's
// row range and column window (the x slice to scatter); any worker
// returns the identical plan, so the endpoint is freely load-balanced.
func (s *Server) handleShardPlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	name := q.Get("matrix")
	if name == "" {
		s.reject(w, http.StatusBadRequest, `missing "matrix"`)
		return
	}
	scale := s.cfg.DefaultScale
	if v := q.Get("scale"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.reject(w, http.StatusBadRequest, "scale must be a positive integer")
			return
		}
		scale = n
	}
	count := 1
	if v := q.Get("count"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > MaxShardCount {
			s.reject(w, http.StatusBadRequest, fmt.Sprintf("count must be an integer in [1, %d]", MaxShardCount))
			return
		}
		count = n
	}
	plan, err := s.reg.ShardPlan(name, scale, count)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownMatrix):
			s.reject(w, http.StatusNotFound, err.Error())
		case errors.Is(err, ErrMatrixTooLarge):
			s.reject(w, http.StatusRequestEntityTooLarge, err.Error())
		default:
			s.reject(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(shardPlanResponse{
		Matrix: name, Scale: scale, Count: count, Shards: plan,
	})
}

type shardPlanResponse struct {
	Matrix string       `json:"matrix"`
	Scale  int          `json:"scale"`
	Count  int          `json:"count"`
	Shards []shard.Desc `json:"shards"`
}

func (s *Server) handleMatrices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := matricesResponse{Known: gen.RepresentativeNames(), Resident: []matrixInfo{}}
	for _, e := range s.reg.Entries() {
		st := e.Batcher.Stats()
		resp.Resident = append(resp.Resident, matrixInfo{
			Key: e.Key, Matrix: e.Name, Scale: e.Scale,
			Rows: e.Rows, Cols: e.Cols, NNZ: e.NNZ, PrepareMs: e.PrepareMs,
			FromStore: e.FromStore,
			Shard:     shardLabel(e.Shard),
			Requests:  st.Requests, Flushes: st.Flushes,
			Coalesced: st.Coalesced, Solo: st.Solo,
			Shed: st.Shed, Expired: st.Expired,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// finishTrace completes and records a multiply's span after the response
// is written: the HTTP status, a total for requests that never reached a
// flush (attributed to queue — they died waiting), and the anomaly
// bookkeeping. Runs once per traced request; the trace must not be
// touched afterwards.
func (s *Server) finishTrace(w http.ResponseWriter, tr *tracing.Trace) {
	if sw, ok := w.(*statusWriter); ok {
		tr.Status = sw.status()
	}
	if tr.TotalNs == 0 {
		tr.TotalNs = int64(time.Since(tr.Start))
		if tr.StageSumNs() == 0 {
			tr.QueueNs = tr.TotalNs
		}
	}
	s.cfg.Recorder.Record(tr)
	if tr.Status == http.StatusOK {
		s.anomaly.onServed(tr.TotalNs)
	}
}

// handleFlightRecorder serves the on-demand snapshot of the flight
// recorder (GET), or the last anomaly snapshot with ?anomaly=last.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.cfg.Recorder == nil {
		s.reject(w, http.StatusNotFound, "flight recorder disabled (start with tracing enabled)")
		return
	}
	if r.URL.Query().Get("anomaly") == "last" {
		last := s.cfg.Recorder.LastAnomaly()
		if last == nil {
			s.reject(w, http.StatusNotFound, "no anomaly snapshot yet")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(last)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.cfg.Recorder.WriteJSON(w)
}

// Anomaly thresholds: a shed spike is shedSpikeCount rejections inside
// shedSpikeWindow; the SLO trigger fires when more than 1% of a
// sloWindowSize-request window finishes over Config.SLO (the "p99 over
// SLO" condition, evaluated without retaining per-request latencies).
const (
	shedSpikeCount  = 8
	shedSpikeWindow = time.Second
	sloWindowSize   = 128
)

// anomalyPolicy converts request-stream signals into flight-recorder
// snapshots. It sits on the handler path (never the flush path), so a
// mutex is fine.
type anomalyPolicy struct {
	rec   *tracing.Recorder
	sloNs int64

	mu          sync.Mutex
	shedStart   time.Time
	shedCount   int
	reqCount    int
	breachCount int
}

func (a *anomalyPolicy) onShed() {
	if a.rec == nil {
		return
	}
	a.mu.Lock()
	now := time.Now()
	if a.shedStart.IsZero() || now.Sub(a.shedStart) > shedSpikeWindow {
		a.shedStart, a.shedCount = now, 0
	}
	a.shedCount++
	spike := a.shedCount == shedSpikeCount
	a.mu.Unlock()
	if spike {
		a.rec.Anomaly("shed-spike")
	}
}

func (a *anomalyPolicy) onServed(totalNs int64) {
	if a.rec == nil || a.sloNs <= 0 {
		return
	}
	a.mu.Lock()
	a.reqCount++
	if totalNs > a.sloNs {
		a.breachCount++
	}
	trigger := false
	if a.reqCount >= sloWindowSize {
		trigger = a.breachCount > a.reqCount/100
		a.reqCount, a.breachCount = 0, 0
	}
	a.mu.Unlock()
	if trigger {
		a.rec.Anomaly("p99-over-slo")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		// 503 with Retry-After tells the fleet router (and any load
		// balancer) to stop routing here and when to probe again — a
		// draining worker must not look healthy.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.cfg.RetryAfter))
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}
