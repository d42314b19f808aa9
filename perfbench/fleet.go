package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"haspmv"
	"haspmv/internal/fleet"
	"haspmv/internal/server"
	"haspmv/internal/telemetry/tracing"
)

// fleetBackends are the fixed worker addresses the router's hash ring
// sees. The router's client dials each through to the worker's ephemeral
// loopback listener, so shard placement depends only on these strings
// and is the same on every run. They were chosen so that shard i lands
// on fleetBackends[i], a split the ring does not usually give consecutive
// shard keys (see NOTES.md). Setup fails on any other placement, so a
// ring change that moves a shard shows instead of silently changing what
// the workload measures.
var fleetBackends = []string{"127.0.0.1:18704", "127.0.0.1:18705"}

// fleetShards is the shard count webbase-1M@8 is configured with.
const fleetShards = 2

// fleetScatter is fleet.NewRouter with static Backends in front of two
// in-process server.Server workers, the matrix split into two row-shards.
// Clients send the same bodies as serve-json.
type fleetScatter struct {
	cfg  config
	m    *haspmv.Machine
	in   *wireInputs
	hc   *http.Client
	bufs []bytes.Buffer

	traced   bool
	workers  []*serverProc
	rtClient *http.Client
	rsvc     *httpService
	rlog     *handlerLog
	url      string
	ops      [][]wireOp

	// refs are the fleet's own unloaded answers (JSON y arrays), computed
	// after the first setup; every loaded answer must reproduce them bit
	// for bit.
	refs [][]byte
	// localIdentical records whether those answers equal a whole-matrix
	// local Multiply bit for bit.
	localIdentical bool
	// placement maps each shard to the backend serving it.
	placement map[string]string
}

func newFleetScatter(cfg config) (*fleetScatter, error) {
	m := haspmv.IntelI912900KF()
	in, err := newWireInputs(cfg, m)
	if err != nil {
		return nil, err
	}
	return &fleetScatter{cfg: cfg, m: m, in: in, hc: newClient(nil), bufs: make([]bytes.Buffer, wireClients)}, nil
}

func (w *fleetScatter) clients() int { return wireClients }

// setup runs from starting the workers and the router to the first
// correct sharded response, which includes the router's plan fetch and
// each worker's Prepare of its shard.
func (w *fleetScatter) setup(traced bool) (time.Duration, error) {
	w.traced = traced
	w.ops = make([][]wireOp, wireClients)
	runtime.GC()
	t0 := time.Now()
	dial := map[string]string{}
	for _, name := range fleetBackends {
		sp, err := startServer(w.m, w.in.scale, traced)
		if err != nil {
			return 0, err
		}
		w.workers = append(w.workers, sp)
		dial[name] = sp.svc.addr()
	}
	var d net.Dialer
	w.rtClient = newClient(func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := dial[addr]
		if !ok {
			return nil, fmt.Errorf("no worker behind %s", addr)
		}
		return d.DialContext(ctx, network, real)
	})
	rt, err := fleet.NewRouter(fleet.RouterOptions{
		Backends:     func() []string { return fleetBackends },
		Shards:       map[string]int{server.Key(wireMatrix, w.in.scale): fleetShards},
		DefaultScale: w.in.scale,
		Client:       w.rtClient,
	})
	if err != nil {
		return 0, err
	}
	var h http.Handler = rt
	if traced {
		w.rlog = newHandlerLog(rt)
		h = w.rlog
	}
	if w.rsvc, err = serveOn(h); err != nil {
		return 0, err
	}
	w.url = "http://" + w.rsvc.addr() + "/v1/multiply"
	_, _, yJSON, err := postMultiply(w.hc, w.url, w.in.bodies[0], "perfbench-setup", &w.bufs[0])
	if err != nil {
		return 0, fmt.Errorf("first sharded response: %w", err)
	}
	elapsed := time.Since(t0)
	var y []float64
	if err := json.Unmarshal(yJSON, &y); err != nil || len(y) != w.in.rows {
		return 0, fmt.Errorf("first sharded response: %d rows (%v), want %d", len(y), err, w.in.rows)
	}
	if w.refs == nil {
		if err := w.unloadedAnswers(); err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// unloadedAnswers records the fleet's answer to every body, one request at
// a time, compares it with the local whole-matrix reference, and reads
// the shard placement from the workers' /v1/matrices.
func (w *fleetScatter) unloadedAnswers() error {
	w.localIdentical = true
	for p, body := range w.in.bodies {
		_, _, y, err := postMultiply(w.hc, w.url, body, fmt.Sprintf("perfbench-ref-%d", p), &w.bufs[0])
		if err != nil {
			return fmt.Errorf("unloaded answer %d: %w", p, err)
		}
		if !bytes.Equal(y, w.in.local[p]) {
			w.localIdentical = false
		}
		w.refs = append(w.refs, bytes.Clone(y))
	}
	if w.cfg.corrupt {
		w.refs[0] = corruptJSON(w.refs[0])
	}
	w.placement = map[string]string{}
	for k, sp := range w.workers {
		res, err := fetchResident(w.hc, sp.base())
		if err != nil {
			return fmt.Errorf("placement: %w", err)
		}
		for _, e := range res {
			w.placement[e.Key] = fleetBackends[k]
		}
	}
	for i := 0; i < fleetShards; i++ {
		key := server.ShardKey(wireMatrix, w.in.scale, i, fleetShards)
		if got := w.placement[key]; got != fleetBackends[i] {
			return fmt.Errorf("shard %s placed on %q, want %s (placement %v)", key, got, fleetBackends[i], w.placement)
		}
	}
	return nil
}

func (w *fleetScatter) op(c, i int, measured bool) (time.Duration, error) {
	p := w.in.pattern(c, i)
	id := opID(c, i)
	lat, n, y, err := postMultiply(w.hc, w.url, w.in.bodies[p], id, &w.bufs[c])
	if err != nil {
		return lat, err
	}
	if err := checkY(y, w.refs[p], "the fleet's unloaded answer"); err != nil {
		return lat, err
	}
	if w.traced && measured {
		w.ops[c] = append(w.ops[c], wireOp{id: id, latNs: int64(lat), reqBytes: len(w.in.bodies[p]), respBytes: n})
	}
	return lat, nil
}

func (w *fleetScatter) layers(ms metrics) ([]string, error) {
	traces := make([]map[string][]tracing.Trace, len(w.workers))
	for k, sp := range w.workers {
		t, err := fetchTraces(w.hc, sp.base())
		if err != nil {
			return nil, fmt.Errorf("worker flight recorder: %w", err)
		}
		traces[k] = t
	}
	var st stageStats
	var router, shard, self, upstream, fwdBytes, reqBytes, respBytes []float64
	for _, ops := range w.ops {
		for _, o := range ops {
			rrecs := w.rlog.get(o.id)
			if len(rrecs) != 1 {
				st.problems = append(st.problems, fmt.Sprintf("%s: %d router records", o.id, len(rrecs)))
				continue
			}
			slowest, n, fwd := int64(0), 0, int64(0)
			for k, sp := range w.workers {
				recs := sp.hlog.get(o.id)
				st.add(o.id, traces[k][o.id], recs)
				for _, r := range recs {
					n++
					fwd += r.bytes
					if r.ns > slowest {
						slowest = r.ns
					}
				}
			}
			router = append(router, float64(rrecs[0].ns)/1e6)
			shard = append(shard, float64(slowest)/1e6)
			self = append(self, float64(rrecs[0].ns-slowest)/1e6)
			upstream = append(upstream, float64(n))
			fwdBytes = append(fwdBytes, float64(fwd))
			reqBytes = append(reqBytes, float64(o.reqBytes))
			respBytes = append(respBytes, float64(o.respBytes))
		}
	}
	if len(router) == 0 {
		return nil, fmt.Errorf("no traced ops")
	}
	ms.set("fleet.router_ms", "ms", mean(router))
	ms.set("fleet.shard_ms", "ms", mean(shard))
	ms.set("fleet.router_self_ms", "ms", mean(self))
	ms.set("fleet.upstream_per_op", "count", mean(upstream))
	ms.set("fleet.forward_bytes", "B", mean(fwdBytes))
	setWireBytes(ms, reqBytes, respBytes)
	st.set(ms, "fleet.worker_")
	identical := 0.0
	if w.localIdentical {
		identical = 1
	}
	ms.set("fleet.local_bit_identical", "bool", identical)
	return st.problems, nil
}

func (w *fleetScatter) teardown() {
	if w.rsvc != nil {
		w.rsvc.close()
		w.rsvc = nil
	}
	for _, sp := range w.workers {
		sp.stop()
	}
	w.workers = nil
	if w.rtClient != nil {
		w.rtClient.CloseIdleConnections()
		w.rtClient = nil
	}
	w.hc.CloseIdleConnections()
}

func (w *fleetScatter) info() map[string]any {
	return map[string]any{
		"matrix": server.Key(wireMatrix, w.in.scale), "rows": w.in.rows, "cols": w.in.cols,
		"shards": fleetShards, "backends": fleetBackends, "placement": w.placement,
		"local_bit_identical": w.localIdentical, "clients": wireClients,
	}
}
