// Command haspmv-serve runs the HASpMV serving daemon: an HTTP/JSON
// SpMV service with per-matrix dynamic request coalescing.
//
//	haspmv-serve -addr :8080 -machine i9-12900KF -preload rma10@16
//
// Endpoints:
//
//	POST /v1/multiply             {"matrix":"rma10","scale":16,"x":[...]} -> {"y":[...]}
//	GET  /v1/matrices             known roster + resident prepared matrices
//	GET  /v1/debug/flightrecorder last -recorder traces + adapter events (add ?anomaly=last)
//	GET  /healthz                 200 serving / 503 draining
//	GET  /metrics                 Prometheus text (with -telemetry, default on)
//	GET  /debug/pprof/            Go profiler
//
// Concurrent requests against the same matrix are coalesced into one
// fused ComputeBatch pass over the matrix: whenever a matrix's dispatcher
// is free it flushes whatever has queued, up to -max-batch requests;
// responses are bit-identical to a solo multiply. Overload is shed with
// 429 + Retry-After, and SIGINT/SIGTERM trigger a graceful drain bounded
// by -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/server"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "haspmv-serve:", err)
		os.Exit(1)
	}
}

// run is the whole daemon; tests drive it in-process. ready (optional)
// receives the bound address once the listener is live, and closing
// shutdown (optional) triggers the same graceful drain as SIGTERM.
func run(args []string, ready func(addr string), shutdown <-chan struct{}) error {
	fs := flag.NewFlagSet("haspmv-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (\":0\" picks a port)")
	machineName := fs.String("machine", "i9-12900KF", "AMP model to partition for (i9-12900KF, i9-13900KF, 7950X3D, 7950X)")
	maxBatch := fs.Int("max-batch", 0, "widest coalesced flush (default 8, the register-block width)")
	queueCap := fs.Int("queue", 256, "per-matrix queue bound; beyond it requests are shed with 429")
	cache := fs.Int("cache", 8, "prepared matrices kept resident (LRU beyond this)")
	defaultScale := fs.Int("scale", 16, "default scale divisor for requests that omit one")
	timeout := fs.Duration("timeout", 2*time.Second, "default per-request deadline")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	preload := fs.String("preload", "", "comma-separated name[@scale] matrices to prepare before listening")
	telemetryOn := fs.Bool("telemetry", true, "collect and serve /metrics alongside the API")
	adapt := fs.Bool("adapt", false, "online adaptive repartitioning: rebalance each matrix's partition from measured per-core spans")
	adaptEvery := fs.Int("adapt-every", 0, "flushed batches between rebalance decisions (default 4)")
	traceRing := fs.Int("recorder", 256, "flight recorder capacity: per-request traces retained for /v1/debug/flightrecorder; 0 disables tracing")
	recorderDir := fs.String("recorder-dir", "", "directory where anomaly snapshots are written as flightrecorder-*.json (empty: in-process only)")
	slo := fs.Duration("slo", 0, "per-request latency objective; >1% of a request window finishing over it snapshots the flight recorder (0 disables)")
	accessLog := fs.Bool("access-log", false, "log one structured line per request (with stage-attributed latency) to stderr")
	storeDir := fs.String("store-dir", "", "prepared-matrix store directory: built matrices spill here (atomic, checksummed) and cold starts mmap them back instead of re-preparing")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	m, ok := amp.ByName(*machineName)
	if !ok {
		return fmt.Errorf("unknown machine %q (have i9-12900KF, i9-13900KF, 7950X3D, 7950X)", *machineName)
	}

	if *telemetryOn {
		prev := telemetry.Activate(telemetry.NewCollector())
		defer telemetry.Activate(prev)
	}

	var adaptOpts *core.AdapterOptions
	if *adapt {
		adaptOpts = &core.AdapterOptions{Every: *adaptEvery}
	}
	var rec *tracing.Recorder
	if *traceRing > 0 {
		rec = tracing.NewRecorder(tracing.RecorderOptions{Traces: *traceRing, Dir: *recorderDir})
	}
	var accessw io.Writer
	if *accessLog {
		accessw = os.Stderr
	}
	if *storeDir != "" {
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			return fmt.Errorf("-store-dir: %w", err)
		}
	}
	srv := server.New(server.Config{
		Machine:        m,
		Algorithm:      core.New(core.Options{}),
		DefaultScale:   *defaultScale,
		DefaultTimeout: *timeout,
		Recorder:       rec,
		SLO:            *slo,
		AccessLog:      accessw,
		Registry: server.RegistryOptions{
			MaxEntries: *cache,
			Batcher: server.BatcherOptions{
				MaxBatch: *maxBatch,
				QueueCap: *queueCap,
			},
			Adapt:    adaptOpts,
			StoreDir: *storeDir,
		},
	})

	for _, spec := range strings.Split(*preload, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, scale := spec, *defaultScale
		if at := strings.LastIndex(spec, "@"); at >= 0 {
			name = spec[:at]
			s, err := strconv.Atoi(spec[at+1:])
			if err != nil || s < 1 {
				return fmt.Errorf("-preload %q: scale must be a positive integer", spec)
			}
			scale = s
		}
		t0 := time.Now()
		if err := srv.Preload(context.Background(), name, scale); err != nil {
			return fmt.Errorf("-preload %s@%d: %w", name, scale, err)
		}
		fmt.Fprintf(os.Stderr, "haspmv-serve: preloaded %s@%d in %s\n", name, scale, time.Since(t0).Round(time.Millisecond))
	}

	// The API mux nests inside an outer mux so /metrics and /debug stay
	// reachable during a drain (load balancers watch /healthz, operators
	// watch /metrics).
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if *telemetryOn {
		telemetry.RegisterHandlers(mux)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(os.Stderr, "haspmv-serve: serving on http://%s (machine model %s)\n", ln.Addr(), m.Name)
	if ready != nil {
		ready(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	case <-shutdown:
	}
	stop()
	fmt.Fprintln(os.Stderr, "haspmv-serve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "haspmv-serve: drained cleanly")
	return nil
}
