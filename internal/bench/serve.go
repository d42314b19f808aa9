package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/server"
	"haspmv/internal/telemetry/tracing"

	haspmvcore "haspmv/internal/core"
)

// ServeRow is one closed-loop serving measurement: a fixed population of
// clients, each issuing its next request as soon as the previous answer
// arrives, against either uncoordinated per-request Computes ("solo") or
// the dynamic batcher ("coalesced").
type ServeRow struct {
	Mode     string // "solo" or "coalesced"
	Clients  int
	Requests int
	WallMs   float64
	// RPS is completed requests per second of wall time.
	RPS float64
	// P50Us/P99Us are client-observed request latencies.
	P50Us float64
	P99Us float64
	// MeanBatch is the average flush width (1 for solo serving).
	MeanBatch float64
	// QueueUs/ComputeUs/MergeUs are the mean per-request stage
	// attribution from each request's tracing.Trace (zero for solo
	// serving, which has no batcher): the three stages partition each
	// served request's queue-to-release lifetime exactly.
	QueueUs, ComputeUs, MergeUs float64
}

// StageSumUs is the mean stage-attributed request lifetime; for
// coalesced rows it reconstructs the batcher-observed latency (client
// observations add only submit/wakeup overhead on top).
func (r ServeRow) StageSumUs() float64 {
	return r.QueueUs + r.ComputeUs + r.MergeUs
}

// ServeSweep prepares one representative matrix, precomputes serial
// Multiply references, and measures solo serving against coalesced
// serving through the batcher. Every response is compared bit-for-bit
// against the serial reference — a mismatch is an error, since the
// serving layer promises coalescing never changes a result.
func ServeSweep(cfg Config, m *amp.Machine, matrix string, clients, perClient int) ([]ServeRow, error) {
	if clients < 1 {
		clients = 64
	}
	if perClient < 1 {
		perClient = 6
	}
	a := gen.Representative(matrix, cfg.RepScale)
	prep, err := haspmvcore.New(haspmvcore.Options{}).Prepare(m, a)
	if err != nil {
		return nil, err
	}

	const patterns = 8
	X := make([][]float64, patterns)
	refs := make([][]float64, patterns)
	for p := 0; p < patterns; p++ {
		X[p] = make([]float64, a.Cols)
		for i := range X[p] {
			X[p][i] = 1 + float64((i+3*p)%11)/11
		}
		refs[p] = make([]float64, a.Rows)
		prep.Compute(refs[p], X[p])
	}

	// run drives the closed loop: clients goroutines, each submitting
	// perClient requests back to back through submit and checking every
	// answer against the serial reference. Each client reuses one trace
	// for all its requests and sums its queue/compute/merge stages.
	run := func(submit func(tr *tracing.Trace, y, x []float64) error) (wall time.Duration, lat []time.Duration, stageNs [3]int64, err error) {
		lat = make([]time.Duration, clients*perClient)
		stages := make([][3]int64, clients)
		errCh := make(chan error, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				y := make([]float64, a.Rows)
				var tr tracing.Trace
				<-start
				for j := 0; j < perClient; j++ {
					p := (g + j) % patterns
					t0 := time.Now()
					if err := submit(&tr, y, X[p]); err != nil {
						errCh <- err
						return
					}
					lat[g*perClient+j] = time.Since(t0)
					stages[g][0] += tr.QueueNs
					stages[g][1] += tr.ComputeNs
					stages[g][2] += tr.MergeNs
					for i := range y {
						if y[i] != refs[p][i] {
							errCh <- fmt.Errorf("client %d request %d: y[%d] = %x, serial Multiply gives %x",
								g, j, i, y[i], refs[p][i])
							return
						}
					}
				}
			}(g)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		wall = time.Since(t0)
		for _, s := range stages {
			for i := range stageNs {
				stageNs[i] += s[i]
			}
		}
		select {
		case err = <-errCh:
		default:
		}
		return wall, lat, stageNs, err
	}

	row := func(mode string, wall time.Duration, lat []time.Duration, stageNs [3]int64, meanBatch float64) ServeRow {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		n := len(lat)
		us := func(ns int64) float64 { return float64(ns) / float64(n) / 1e3 }
		r := ServeRow{
			Mode: mode, Clients: clients, Requests: n,
			WallMs:    float64(wall.Nanoseconds()) / 1e6,
			P50Us:     float64(lat[n/2].Nanoseconds()) / 1e3,
			P99Us:     float64(lat[n*99/100].Nanoseconds()) / 1e3,
			MeanBatch: meanBatch,
			QueueUs:   us(stageNs[0]),
			ComputeUs: us(stageNs[1]),
			MergeUs:   us(stageNs[2]),
		}
		if s := wall.Seconds(); s > 0 {
			r.RPS = float64(n) / s
		}
		return r
	}

	// Solo baseline: each client calls Compute directly, no coordination
	// — what serving looks like without the batcher.
	wall, lat, stageNs, err := run(func(_ *tracing.Trace, y, x []float64) error {
		prep.Compute(y, x)
		return nil
	})
	if err != nil {
		return nil, err
	}
	solo := row("solo", wall, lat, stageNs, 1)

	b := server.NewBatcher(prep, server.BatcherOptions{})
	wall, lat, stageNs, err = run(func(tr *tracing.Trace, y, x []float64) error {
		_, err := b.SubmitTraced(context.Background(), y, x, tr)
		return err
	})
	st := b.Stats()
	b.Close()
	if err != nil {
		return nil, err
	}
	return []ServeRow{solo, row("coalesced", wall, lat, stageNs, st.MeanOccupancy())}, nil
}

// ServeSpeedup returns a sweep's coalesced-over-solo throughput (0 if
// the sweep lacks either mode).
func ServeSpeedup(rows []ServeRow) float64 {
	rps := map[string]float64{}
	for _, r := range rows {
		rps[r.Mode] = r.RPS
	}
	if rps["solo"] == 0 {
		return 0
	}
	return rps["coalesced"] / rps["solo"]
}

// PrintServe renders a serving sweep.
func PrintServe(w io.Writer, m *amp.Machine, matrix string, nnz int, rows []ServeRow) {
	fmt.Fprintf(w, "\n# Closed-loop serving on %s (%d nnz, machine model %s used for partitioning only)\n", matrix, nnz, m.Name)
	fmt.Fprintln(w, "note: solo = concurrent uncoordinated Computes; coalesced = dynamic batcher (bit-identical responses)")
	tw := newTable(w)
	fmt.Fprintln(tw, "mode\tclients\treq/s\tp50(us)\tp99(us)\tmean batch\tqueue(us)\tcompute(us)\tmerge(us)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.2f\t%.0f\t%.0f\t%.0f\n",
			r.Mode, r.Clients, r.RPS, r.P50Us, r.P99Us, r.MeanBatch,
			r.QueueUs, r.ComputeUs, r.MergeUs)
	}
	tw.Flush()
	fmt.Fprintf(w, "coalesced/solo throughput: %.2fx\n", ServeSpeedup(rows))
}

// ServeCSV emits machine,matrix,mode,clients,requests,wall_ms,rps,
// p50_us,p99_us,mean_batch plus the mean per-request stage attribution
// (queue_us,compute_us,merge_us) per row.
func ServeCSV(w io.Writer, machine, matrix string, rowsIn []ServeRow) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"machine", "matrix", "mode", "clients", "requests", "wall_ms", "rps", "p50_us", "p99_us", "mean_batch", "queue_us", "compute_us", "merge_us"}}
	for _, r := range rowsIn {
		rows = append(rows, []string{
			machine, matrix, r.Mode, d(r.Clients), d(r.Requests),
			f(r.WallMs), f(r.RPS), f(r.P50Us), f(r.P99Us), f(r.MeanBatch),
			f(r.QueueUs), f(r.ComputeUs), f(r.MergeUs),
		})
	}
	return writeAll(cw, rows)
}
