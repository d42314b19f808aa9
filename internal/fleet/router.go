package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"haspmv/internal/fleet/shard"
	"haspmv/internal/server"
	"haspmv/internal/telemetry"
)

var (
	cRouterRequests = telemetry.NewCounter("fleet_router_requests")
	cRouterRetries  = telemetry.NewCounter("fleet_router_retries")
	cRouterScatter  = telemetry.NewCounter("fleet_router_sharded_requests")
	cRouterFailed   = telemetry.NewCounter("fleet_router_failed")
)

// RouterOptions configures the fleet front-end.
type RouterOptions struct {
	// Backends returns the live worker addresses (Supervisor.Endpoints).
	// Called per request; the hash ring is rebuilt only when the set
	// changes. Required.
	Backends func() []string
	// Status, when set, backs GET /v1/fleet (Supervisor.Snapshot).
	Status func() []WorkerInfo
	// Shards maps "name@scale" to a shard count: requests for those
	// matrices take the scatter-gather path across the fleet instead of
	// landing on one worker.
	Shards map[string]int
	// DefaultScale keys shard lookups for requests that omit a scale
	// (must match the workers' -scale). Default 16.
	DefaultScale int
	// VNodes is the virtual nodes per backend on the hash ring (default 64).
	VNodes int
	// Attempts bounds how many distinct backends a request tries before
	// failing (default 3; transport errors, 429 and draining 503s move to
	// the next ring candidate). Capped at the live backend count.
	Attempts int
	// Client issues the proxied requests (default: 30s timeout).
	Client *http.Client
	// Logf, when set, receives one line per retry and failure.
	Logf func(format string, args ...any)
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.DefaultScale <= 0 {
		o.DefaultScale = 16
	}
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Router is the fleet front-end: it consistent-hashes each matrix to a
// worker (so every matrix's requests coalesce in one worker's batcher
// and its prepared form stays resident in one cache), fails over around
// dead or draining workers, and scatter-gathers configured matrices
// across row-shards — slicing x by each shard's column window and
// merging the fragments with the extraY discipline.
type Router struct {
	opts RouterOptions
	mux  *http.ServeMux

	ringMu  sync.Mutex
	ringKey string
	ring    *hashRing

	planMu sync.Mutex
	plans  map[string][]shard.Desc
}

// NewRouter builds the front-end handler.
func NewRouter(opts RouterOptions) (*Router, error) {
	opts = opts.withDefaults()
	if opts.Backends == nil {
		return nil, fmt.Errorf("fleet: router needs a Backends source")
	}
	rt := &Router{opts: opts, plans: map[string][]shard.Desc{}}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/multiply", rt.handleMultiply)
	rt.mux.HandleFunc("/v1/fleet", rt.handleFleet)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// --- consistent hash ring ---

type ringPoint struct {
	hash uint64
	addr string
}

type hashRing struct {
	points   []ringPoint
	backends []string
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

func newHashRing(backends []string, vnodes int) *hashRing {
	r := &hashRing{backends: backends}
	for _, b := range backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", b, v)), b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// candidates returns the distinct backends for key in ring order
// starting at its owner — the failover sequence.
func (r *hashRing) candidates(key string, max int) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	return out
}

// ringFor rebuilds the ring only when the backend set changed.
func (rt *Router) ringFor(backends []string) *hashRing {
	key := strings.Join(backends, ",")
	rt.ringMu.Lock()
	defer rt.ringMu.Unlock()
	if rt.ring == nil || rt.ringKey != key {
		rt.ring = newHashRing(backends, rt.opts.VNodes)
		rt.ringKey = key
	}
	return rt.ring
}

// --- request routing ---

type routeError struct {
	status int
	body   []byte
	header http.Header
}

func (e *routeError) Error() string { return fmt.Sprintf("upstream status %d", e.status) }

// forward POSTs body to one backend for key, walking the failover
// candidates on transport errors and retryable statuses (429, and 503 —
// the draining signal). The 200 answer is read into wb and returned; a
// non-retryable upstream answer is returned as a routeError so the
// caller can relay it verbatim.
func (rt *Router) forward(ctx context.Context, key, path string, body []byte, reqID string, wb *server.WireBuf) ([]byte, error) {
	backends := rt.opts.Backends()
	if len(backends) == 0 {
		return nil, &routeError{status: http.StatusServiceUnavailable, body: []byte(`{"error":"no live workers"}`)}
	}
	attempts := rt.opts.Attempts
	if attempts > len(backends) {
		attempts = len(backends)
	}
	cands := rt.ringFor(backends).candidates(key, attempts)
	var lastErr error
	for i, addr := range cands {
		if err := ctx.Err(); err != nil {
			// Cancelled (client gone, or a sibling shard failed) or past
			// the deadline: no candidate can succeed now.
			return nil, err
		}
		if i > 0 {
			cRouterRetries.Add(1)
			rt.opts.Logf("fleet: retrying %s on %s (%v)", key, addr, lastErr)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		resp, err := rt.opts.Client.Do(req)
		if err != nil {
			// Transport error: the worker died or is mid-restart. The next
			// ring candidate owns the key now.
			lastErr = err
			continue
		}
		respBody, err := wb.ReadBody(resp.Body, resp.ContentLength)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return respBody, nil
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			// Draining or shedding: honor the signal by moving on.
			lastErr = fmt.Errorf("%s: status %d", addr, resp.StatusCode)
			continue
		default:
			// Cloned: wb goes back to its pool before the error is relayed.
			return nil, &routeError{status: resp.StatusCode, body: bytes.Clone(respBody), header: resp.Header}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no candidates")
	}
	return nil, fmt.Errorf("fleet: %s failed on all %d candidates: %w", key, len(cands), lastErr)
}

func (rt *Router) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	cRouterRequests.Add(1)
	// The worker's own cap: a body that works direct works through the
	// fleet, and a declared oversize body is refused before it is read.
	if r.ContentLength > server.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", server.MaxBodyBytes)
		return
	}
	// Not pooled: the client may still read a request body it was handed
	// after Do returns, so a forwarded body must outlive the handler.
	body, err := server.ReadBody(nil, http.MaxBytesReader(w, r.Body, server.MaxBodyBytes), r.ContentLength)
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", server.MaxBodyBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// Routing needs only the header fields; x stays text until a scatter
	// has to slice it.
	var req server.MultiplyRequest
	if err := server.DecodeRequestHeader(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Scale == 0 {
		req.Scale = rt.opts.DefaultScale
	}
	ctx := r.Context()
	if t := req.Timeout(); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	key := fmt.Sprintf("%s@%d", req.Matrix, req.Scale)
	reqID := r.Header.Get("X-Request-ID")
	if count := rt.opts.Shards[key]; count > 1 {
		rt.scatterMultiply(ctx, w, key, count, body, &req, reqID)
		return
	}
	wb := server.GetWireBuf()
	defer wb.Release()
	resp, err := rt.forward(ctx, key, "/v1/multiply", body, reqID, wb)
	if err != nil {
		rt.relayError(w, key, err)
		return
	}
	writeJSONBytes(w, reqID, resp)
}

// scatterMultiply fans one multiply out across the matrix's row-shards:
// shard i goes to the ring owner of "key#i/count" with the usual
// failover, carrying only the x slice its column window needs and the
// time left before ctx's deadline, and the returned fragments gather
// into the full y. x is parsed and every column window is checked
// against it before any sub-request starts; the first failing shard
// cancels its siblings, and the handler returns only after every
// sub-request has exited.
func (rt *Router) scatterMultiply(ctx context.Context, w http.ResponseWriter, key string, count int, body []byte, req *server.MultiplyRequest, reqID string) {
	cRouterScatter.Add(1)
	wb := server.GetWireBuf()
	defer wb.Release()
	var full server.MultiplyRequest
	if err := wb.DecodeRequest(body, &full); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	x := full.X
	plan, err := rt.shardPlan(ctx, key, req.Matrix, req.Scale, count)
	if err != nil {
		rt.relayError(w, key, err)
		return
	}
	rows := 0
	for i, d := range plan {
		if d.ColHi > len(x) {
			httpError(w, http.StatusBadRequest, "x has %d elements; shard %d needs columns up to %d", len(x), i, d.ColHi)
			return
		}
		if d.Row1+1 > rows {
			rows = d.Row1 + 1
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		failOnce sync.Once
		failErr  error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}
	// Each shard's response and fragment live in its own pooled buffer
	// until the gather below has read them.
	bufs := make([]*server.WireBuf, count)
	for i := range bufs {
		bufs[i] = server.GetWireBuf()
	}
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()
	parts := make([][]float64, count)
	frags := make([]server.MultiplyResponse, count)
	for i, d := range plan {
		wg.Add(1)
		go func(i int, d shard.Desc) {
			defer wg.Done()
			sub, err := server.AppendRequest(nil, &server.MultiplyRequest{
				Matrix: req.Matrix, Scale: req.Scale,
				X:          x[d.ColLo:d.ColHi],
				TimeoutMs:  remainingMs(ctx),
				ShardIndex: i, ShardCount: count,
			})
			var respBody []byte
			if err == nil {
				respBody, err = rt.forward(ctx, fmt.Sprintf("%s#%d/%d", key, i, count), "/v1/multiply", sub, reqID, bufs[i])
			}
			if err == nil {
				err = bufs[i].DecodeResponse(respBody, &frags[i])
			}
			if err != nil {
				fail(err)
				return
			}
			parts[i] = frags[i].Y
		}(i, d)
	}
	wg.Wait()
	if failErr != nil {
		rt.relayError(w, key, failErr)
		return
	}
	// Cleared: a plan need not cover every row, and the buffer is reused.
	y := wb.Floats(rows)
	clear(y)
	if err := shard.Gather(y, plan, parts); err != nil {
		rt.relayError(w, key, err)
		return
	}
	resp := server.MultiplyResponse{
		Matrix: req.Matrix, Scale: req.Scale,
		Rows: rows, Cols: len(x), ShardCount: count, Y: y,
	}
	for _, f := range frags {
		resp.BatchNV = max(resp.BatchNV, f.BatchNV)
	}
	out, err := wb.EncodeResponse(&resp)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSONBytes(w, reqID, out)
}

// remainingMs is the time left before ctx's deadline in whole
// milliseconds, at least 1, or 0 (the worker's default) when ctx has no
// deadline.
func remainingMs(ctx context.Context) int {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return int(max(time.Until(dl).Milliseconds(), 1))
}

// shardPlan fetches (and caches) the matrix's shard plan from any
// worker — plans are a pure function of the matrix, so every worker
// reports the identical one.
func (rt *Router) shardPlan(ctx context.Context, key, matrix string, scale, count int) ([]shard.Desc, error) {
	cacheKey := fmt.Sprintf("%s/%d", key, count)
	rt.planMu.Lock()
	plan, ok := rt.plans[cacheKey]
	rt.planMu.Unlock()
	if ok {
		return plan, nil
	}
	backends := rt.opts.Backends()
	if len(backends) == 0 {
		return nil, &routeError{status: http.StatusServiceUnavailable, body: []byte(`{"error":"no live workers"}`)}
	}
	var lastErr error
	for _, addr := range rt.ringFor(backends).candidates(cacheKey, len(backends)) {
		url := fmt.Sprintf("http://%s/v1/shardplan?matrix=%s&scale=%d&count=%d", addr, matrix, scale, count)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := rt.opts.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode == http.StatusServiceUnavailable {
				lastErr = fmt.Errorf("%s: draining", addr)
				continue
			}
			return nil, &routeError{status: resp.StatusCode, body: body, header: resp.Header}
		}
		var pr struct {
			Shards []shard.Desc `json:"shards"`
		}
		if err := json.Unmarshal(body, &pr); err != nil {
			lastErr = err
			continue
		}
		if len(pr.Shards) != count {
			return nil, fmt.Errorf("fleet: worker returned %d shards, want %d", len(pr.Shards), count)
		}
		for i, d := range pr.Shards {
			if d.ColLo < 0 || d.ColLo > d.ColHi {
				return nil, fmt.Errorf("fleet: worker returned shard %d with column window [%d, %d)", i, d.ColLo, d.ColHi)
			}
			if d.Row0 < 0 || d.Row1 < d.Row0 {
				return nil, fmt.Errorf("fleet: worker returned shard %d with rows [%d, %d]", i, d.Row0, d.Row1)
			}
		}
		rt.planMu.Lock()
		rt.plans[cacheKey] = pr.Shards
		rt.planMu.Unlock()
		return pr.Shards, nil
	}
	return nil, fmt.Errorf("fleet: shard plan for %s unavailable: %w", key, lastErr)
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	type fleetStatus struct {
		Workers  []WorkerInfo `json:"workers"`
		Backends []string     `json:"backends"`
	}
	st := fleetStatus{Backends: rt.opts.Backends()}
	if rt.opts.Status != nil {
		st.Workers = rt.opts.Status()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if len(rt.opts.Backends()) == 0 {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "no live workers")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// relayError maps a routing failure onto the client response: upstream
// answers pass through with their status, exhaustion becomes 502.
func (rt *Router) relayError(w http.ResponseWriter, key string, err error) {
	cRouterFailed.Add(1)
	rt.opts.Logf("fleet: %s failed: %v", key, err)
	if re, ok := err.(*routeError); ok {
		if ra := re.header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(re.status)
		w.Write(re.body)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		httpError(w, http.StatusGatewayTimeout, "deadline expired: %v", err)
		return
	}
	httpError(w, http.StatusBadGateway, "%v", err)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSONBytes(w http.ResponseWriter, reqID string, body []byte) {
	if reqID != "" {
		w.Header().Set("X-Request-ID", reqID)
	}
	server.WriteJSON(w, body)
}
