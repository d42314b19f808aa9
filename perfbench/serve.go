package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"haspmv"
	"haspmv/internal/server"
)

// serveJSON is the production HTTP/JSON server in-process: server.New
// with the default registry and batcher options behind a loopback
// listener, two closed-loop clients POSTing pre-encoded multiplies.
type serveJSON struct {
	cfg  config
	m    *haspmv.Machine
	in   *wireInputs
	hc   *http.Client
	bufs []bytes.Buffer

	traced bool
	sp     *serverProc
	// ops are the measured ops of a traced pass, per client.
	ops [][]wireOp
}

func newServeJSON(cfg config) (*serveJSON, error) {
	m := haspmv.IntelI912900KF()
	in, err := newWireInputs(cfg, m)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		in.local[0] = corruptJSON(in.local[0])
	}
	return &serveJSON{cfg: cfg, m: m, in: in, hc: newClient(nil), bufs: make([]bytes.Buffer, wireClients)}, nil
}

func (w *serveJSON) clients() int { return wireClients }

// setup runs from server.New through the listener coming up and the
// Preload of the matrix (the registry's generate + Prepare).
func (w *serveJSON) setup(traced bool) (time.Duration, error) {
	w.traced = traced
	w.ops = make([][]wireOp, wireClients)
	runtime.GC()
	t0 := time.Now()
	sp, err := startServer(w.m, 0, traced)
	if err != nil {
		return 0, err
	}
	w.sp = sp
	if err := sp.srv.Preload(context.Background(), wireMatrix, w.in.scale); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	return time.Since(t0), nil
}

func (w *serveJSON) op(c, i int, measured bool) (time.Duration, error) {
	p := w.in.pattern(c, i)
	id := opID(c, i)
	lat, n, y, err := postMultiply(w.hc, w.sp.base()+"/v1/multiply", w.in.bodies[p], id, &w.bufs[c])
	if err != nil {
		return lat, err
	}
	if err := checkY(y, w.in.local[p], "the local reference"); err != nil {
		return lat, err
	}
	if w.traced && measured {
		w.ops[c] = append(w.ops[c], wireOp{id: id, latNs: int64(lat), reqBytes: len(w.in.bodies[p]), respBytes: n})
	}
	return lat, nil
}

func (w *serveJSON) layers(ms metrics) ([]string, error) {
	traces, err := fetchTraces(w.hc, w.sp.base())
	if err != nil {
		return nil, fmt.Errorf("flight recorder: %w", err)
	}
	var st stageStats
	var loopback, reqBytes, respBytes []float64
	for _, ops := range w.ops {
		for _, o := range ops {
			recs := w.sp.hlog.get(o.id)
			st.add(o.id, traces[o.id], recs)
			if len(recs) == 1 {
				loopback = append(loopback, float64(o.latNs-recs[0].ns)/1e6)
			}
			reqBytes = append(reqBytes, float64(o.reqBytes))
			respBytes = append(respBytes, float64(o.respBytes))
		}
	}
	if len(reqBytes) == 0 {
		return nil, fmt.Errorf("no traced ops")
	}
	st.set(ms, "server.")
	ms.set("server.wire_ms", "ms", mean(st.handler)-st.stageSum())
	ms.set("net.loopback_ms", "ms", mean(loopback))
	setWireBytes(ms, reqBytes, respBytes)
	res, err := fetchResident(w.hc, w.sp.base())
	if err != nil {
		return nil, fmt.Errorf("matrices: %w", err)
	}
	for _, e := range res {
		if e.Key != server.Key(wireMatrix, w.in.scale) {
			continue
		}
		if e.Flushes > 0 {
			ms.set("server.batch_nv_mean", "count", float64(e.Coalesced+e.Solo)/float64(e.Flushes))
		}
		ms.set("server.shed", "count", float64(e.Shed))
		ms.set("server.expired", "count", float64(e.Expired))
	}
	return st.problems, nil
}

func (w *serveJSON) teardown() {
	if w.sp != nil {
		w.sp.stop()
		w.sp = nil
	}
	w.hc.CloseIdleConnections()
}

func (w *serveJSON) info() map[string]any {
	return map[string]any{
		"matrix": server.Key(wireMatrix, w.in.scale), "rows": w.in.rows, "cols": w.in.cols,
		"request_bytes": len(w.in.bodies[0]), "clients": wireClients,
	}
}
