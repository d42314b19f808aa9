// Command haspmv-fleet runs a sharded multi-matrix serving fleet: a
// supervising parent that spawns N haspmv-serve workers, restarts the
// ones that crash (exponential backoff, reset after sustained health),
// health-checks them, and fronts them with a consistent-hashing router.
//
//	haspmv-fleet -addr :8090 -workers 3 -worker-bin ./haspmv-serve \
//	    -machine i9-12900KF -preload rma10@16 -shard webbase-1M@16=3
//
// Endpoints (served by the router):
//
//	POST /v1/multiply  routed to the matrix's worker; sharded matrices
//	                   are scatter-gathered across the fleet
//	GET  /v1/fleet     worker states, pids, restart counts
//	GET  /healthz      200 while >= 1 worker serves, else 503
//	GET  /metrics      Prometheus text (router + supervisor counters)
//
// SIGINT/SIGTERM drain every worker (each finishes in-flight requests)
// and exit 0 once all have stopped cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"haspmv/internal/fleet"
	"haspmv/internal/server"
	"haspmv/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "haspmv-fleet:", err)
		os.Exit(1)
	}
}

// run is the whole daemon; tests drive it in-process. ready (optional)
// receives the router's bound address; closing shutdown (optional)
// triggers the same drain as SIGTERM.
func run(args []string, ready func(addr string), shutdown <-chan struct{}) error {
	fs := flag.NewFlagSet("haspmv-fleet", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "router listen address (\":0\" picks a port)")
	workers := fs.Int("workers", 3, "worker processes to supervise")
	workerBin := fs.String("worker-bin", "haspmv-serve", "haspmv-serve binary to spawn")
	machine := fs.String("machine", "i9-12900KF", "AMP model passed to every worker")
	scale := fs.Int("scale", 16, "default scale passed to every worker")
	preload := fs.String("preload", "", "comma-separated name[@scale] matrices each worker prepares before serving")
	shardSpec := fs.String("shard", "", "comma-separated name@scale=count specs: those matrices are row-sharded across the fleet")
	workerArgs := fs.String("worker-args", "", "extra space-separated flags appended to every worker command line")
	backoffBase := fs.Duration("backoff", 100*time.Millisecond, "first restart delay after a worker crash (doubles per crash)")
	backoffCap := fs.Duration("backoff-cap", 5*time.Second, "restart delay ceiling")
	healthEvery := fs.Duration("health-every", 250*time.Millisecond, "worker /healthz polling period")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget for the whole fleet")
	attempts := fs.Int("attempts", 3, "distinct workers tried per request before failing")
	telemetryOn := fs.Bool("telemetry", true, "collect and serve /metrics alongside the API")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	shards, err := parseShards(*shardSpec, *scale)
	if err != nil {
		return err
	}

	if *telemetryOn {
		prev := telemetry.Activate(telemetry.NewCollector())
		defer telemetry.Activate(prev)
	}

	wargs := []string{"-machine", *machine, "-scale", strconv.Itoa(*scale)}
	if *preload != "" {
		wargs = append(wargs, "-preload", *preload)
	}
	if *workerArgs != "" {
		wargs = append(wargs, strings.Fields(*workerArgs)...)
	}
	sup, err := fleet.NewSupervisor(fleet.SupervisorOptions{
		Workers: *workers,
		Launcher: &fleet.ExecLauncher{
			Bin:  *workerBin,
			Args: wargs,
		},
		BackoffBase: *backoffBase,
		BackoffCap:  *backoffCap,
		HealthEvery: *healthEvery,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	sup.Start()

	router, err := fleet.NewRouter(fleet.RouterOptions{
		Backends:     sup.Endpoints,
		Status:       sup.Snapshot,
		Shards:       shards,
		DefaultScale: *scale,
		Attempts:     *attempts,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/", router)
	if *telemetryOn {
		telemetry.RegisterHandlers(mux)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(os.Stderr, "haspmv-fleet: routing on http://%s (%d workers, %s)\n", ln.Addr(), *workers, *workerBin)
	if ready != nil {
		ready(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		sup.Drain(dctx)
		return err
	case <-ctx.Done():
	case <-shutdown:
	}
	stop()
	fmt.Fprintln(os.Stderr, "haspmv-fleet: draining fleet")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := sup.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "haspmv-fleet: drained cleanly")
	return nil
}

// parseShards turns "name@scale=count,..." into the router's shard map.
// A spec without @scale uses the fleet default.
func parseShards(spec string, defaultScale int) (map[string]int, error) {
	out := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.LastIndex(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("-shard %q: want name[@scale]=count", part)
		}
		count, err := strconv.Atoi(part[eq+1:])
		if err != nil || count < 2 || count > server.MaxShardCount {
			return nil, fmt.Errorf("-shard %q: count must be an integer in [2, %d]", part, server.MaxShardCount)
		}
		key := part[:eq]
		if !strings.Contains(key, "@") {
			key = fmt.Sprintf("%s@%d", key, defaultScale)
		}
		out[key] = count
	}
	return out, nil
}
