// Package server is the HASpMV serving subsystem: an HTTP/JSON SpMV
// service whose core is a per-matrix dynamic batcher. Concurrent
// Multiply requests against the same prepared matrix are coalesced into
// one fused ComputeBatch call: whenever the dispatcher is free it
// flushes whatever has queued, up to kernel.MaxBlock requests, with no
// timer — so requests that arrive while a flush computes share the next
// walk of the matrix's value and column streams instead of taking one
// each, and a lone request on an idle matrix is computed at once.
//
// Coalescing is transparent: ComputeBatch is bit-exact with respect to
// Compute (see internal/core/batch.go), so a response carries exactly
// the float64 bits a solo Multiply would have produced regardless of how
// many neighbours it shared a batch with.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"haspmv/internal/exec"
	"haspmv/internal/kernel"
	"haspmv/internal/telemetry"
	"haspmv/internal/telemetry/tracing"
)

// Serving telemetry. All metrics self-gate on the telemetry enabled
// flag, so the disabled cost is one atomic load per event.
var (
	cServeRequests  = telemetry.NewCounter("serve_requests")
	cServeCoalesced = telemetry.NewCounter("serve_coalesced_requests")
	cServeSolo      = telemetry.NewCounter("serve_solo_requests")
	cServeFlushes   = telemetry.NewCounter("serve_flushes")
	cServeShed      = telemetry.NewCounter("serve_shed")
	cServeExpired   = telemetry.NewCounter("serve_expired")
	gServeQueue     = telemetry.NewGauge("serve_queue_depth")
	hServeOccupancy = telemetry.NewValueHistogram("serve_batch_occupancy")
	hServeLatency   = telemetry.NewHistogram("serve_request")
	// Stage-attributed latency histograms: the three stages partition each
	// served request's queue-to-release lifetime exactly (see execute).
	hStageQueue   = telemetry.NewHistogram("serve_stage_queue")
	hStageCompute = telemetry.NewHistogram("serve_stage_compute")
	hStageMerge   = telemetry.NewHistogram("serve_stage_merge")
)

// Batcher errors surfaced to callers of Submit. The HTTP layer maps
// ErrQueueFull to 429 (with Retry-After) and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("server: request queue full")
	ErrDraining  = errors.New("server: batcher draining")
)

// BatcherOptions tunes one matrix's batcher.
type BatcherOptions struct {
	// MaxBatch is the widest flush: the dispatcher takes at most this
	// many queued requests per fused call. Defaults to kernel.MaxBlock,
	// the widest block the fused kernel serves in one pass over the
	// index stream.
	MaxBatch int
	// QueueCap bounds the number of queued requests; Submit sheds with
	// ErrQueueFull beyond it. Default 256.
	QueueCap int
	// Observer, when set, runs on the dispatcher goroutine after every
	// dispatched batch has been computed and *before* its waiters are
	// released, receiving the flush's traced requests — so anything it
	// stamps into the traces (the adapter epoch that observed the flush)
	// is visible to the handlers that will record them.
	Observer FlushObserver
}

// FlushObserver observes dispatched flushes (see BatcherOptions.Observer).
// The traces slice is dispatcher-owned and reused; implementations must
// not retain it past the call (retaining the *Trace pointers themselves
// is also wrong — they are released to their waiters right after).
type FlushObserver interface {
	ObserveFlush(traces []*tracing.Trace)
}

func (o BatcherOptions) withDefaults() BatcherOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = kernel.MaxBlock
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	return o
}

// call is one queued Multiply request.
type call struct {
	ctx  context.Context
	x, y []float64
	enq  time.Time
	nv   int   // batch width the call was served in, set before done closes
	err  error // terminal error (context error), set before done closes
	done chan struct{}
	// tr is the request's span record (nil when untraced). The dispatcher
	// fills the stage and flush fields before done closes; afterwards the
	// submitter owns the trace again.
	tr *tracing.Trace
}

// BatcherStats is a snapshot of one batcher's lifetime counters, used by
// the /v1/matrices endpoint and the coalescing throughput test.
type BatcherStats struct {
	Requests  int64 // calls accepted into the queue
	Flushes   int64 // batches dispatched (including width-1)
	Coalesced int64 // requests served in a batch of width >= 2
	Solo      int64 // requests served alone
	Shed      int64 // calls rejected with ErrQueueFull
	Expired   int64 // calls dropped because their context ended in queue
}

// MeanOccupancy is the average batch width over all flushes.
func (s BatcherStats) MeanOccupancy() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Coalesced+s.Solo) / float64(s.Flushes)
}

// Batcher coalesces concurrent requests against one prepared matrix.
// Submit blocks until the request's batch has been computed; a single
// dispatcher goroutine owns the flush loop, so the executor only ever
// sees one Compute/ComputeBatch call per matrix at a time.
type Batcher struct {
	prep exec.Prepared
	opts BatcherOptions

	mu       sync.Mutex
	queue    []*call
	draining bool

	// wake carries at most one pending token; Submit and Close send
	// without blocking, the dispatcher drains it when idle.
	wake chan struct{}
	done chan struct{}

	// Lifetime counters, independent of the gated telemetry registry so
	// /v1/matrices reports them with telemetry disabled.
	requests, flushes, coalesced, solo, shed, expired atomic.Int64

	// Dispatcher-owned scratch for gathering batch views, the flush's
	// traced requests, and the reusable compute breakdown — all reused
	// across flushes so the steady-state flush allocates nothing.
	xs, ys [][]float64
	trs    []*tracing.Trace
	bd     tracing.ComputeBreakdown
}

// NewBatcher starts the dispatcher goroutine for one prepared matrix.
// Callers must Close the batcher to stop it.
func NewBatcher(prep exec.Prepared, opts BatcherOptions) *Batcher {
	b := &Batcher{
		prep: prep,
		opts: opts.withDefaults(),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// Stats snapshots the lifetime counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Requests:  b.requests.Load(),
		Flushes:   b.flushes.Load(),
		Coalesced: b.coalesced.Load(),
		Solo:      b.solo.Load(),
		Shed:      b.shed.Load(),
		Expired:   b.expired.Load(),
	}
}

// Submit enqueues y = A*x and blocks until the dispatcher has served the
// request (or dropped it because ctx ended while it was still queued).
// On success it returns the width of the batch the request was computed
// in; y then holds exactly the bits a solo Compute would have produced.
// Submit never returns while the dispatcher might still write to y, so
// callers may reuse their buffers immediately.
func (b *Batcher) Submit(ctx context.Context, y, x []float64) (nv int, err error) {
	return b.SubmitTraced(ctx, y, x, nil)
}

// SubmitTraced is Submit with a per-request span record: the dispatcher
// fills tr's stage durations (queue, compute, merge — summing exactly
// to TotalNs), flush linkage (width, cause, per-core critical path,
// format split) before SubmitTraced returns. tr is caller-owned;
// the batcher never retains it past the return. A nil tr is plain
// Submit.
func (b *Batcher) SubmitTraced(ctx context.Context, y, x []float64, tr *tracing.Trace) (nv int, err error) {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return 0, ErrDraining
	}
	if len(b.queue) >= b.opts.QueueCap {
		b.mu.Unlock()
		b.shed.Add(1)
		cServeShed.Add(1)
		return 0, ErrQueueFull
	}
	c := &call{ctx: ctx, x: x, y: y, enq: time.Now(), done: make(chan struct{}), tr: tr}
	if tr != nil {
		tr.Start = c.enq
	}
	b.queue = append(b.queue, c)
	depth := len(b.queue)
	b.mu.Unlock()

	b.requests.Add(1)
	cServeRequests.Add(1)
	gServeQueue.Set(int64(depth))
	select {
	case b.wake <- struct{}{}:
	default:
	}

	// The dispatcher closes done for every call it dequeues, including
	// expired ones, and Close drains the queue before the dispatcher
	// exits — so this wait always terminates, bounded by the time to
	// flush everything ahead of the call.
	<-c.done
	return c.nv, c.err
}

// Close stops accepting new requests, lets the dispatcher flush
// everything already queued, and blocks until it has exited. Safe to
// call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	<-b.done
}

// loop is the dispatcher: wait for work, then flush whatever has queued,
// up to MaxBatch requests, in one fused call. Requests that arrive while
// a flush computes form the next flush's backlog; nothing waits on a
// timer.
func (b *Batcher) loop() {
	defer close(b.done)
	var batch []*call
	for {
		b.mu.Lock()
		for len(b.queue) == 0 {
			if b.draining {
				b.mu.Unlock()
				return
			}
			b.mu.Unlock()
			<-b.wake
			b.mu.Lock()
		}
		n := min(len(b.queue), b.opts.MaxBatch)
		cause := flushBacklog
		switch {
		case b.draining:
			cause = flushDrain
		case n == b.opts.MaxBatch:
			cause = flushFull
		}
		batch = append(batch[:0], b.queue[:n]...)
		rest := copy(b.queue, b.queue[n:])
		for i := rest; i < len(b.queue); i++ {
			b.queue[i] = nil
		}
		b.queue = b.queue[:rest]
		gServeQueue.Set(int64(rest))
		b.mu.Unlock()
		b.execute(batch, cause)
	}
}

// Flush causes, as reported in Trace.FlushCause: "full" when MaxBatch
// requests were waiting, "drain" when Close is flushing the tail, and
// "backlog" for an under-full flush of whatever had queued.
const (
	flushFull    = "full"
	flushBacklog = "backlog"
	flushDrain   = "drain"
)

// execute drops expired calls, serves the survivors with one fused call
// (a lone request is a batch of one), attributes each request's
// latency to its three stages, and releases every waiter.
//
// Stage attribution partitions the queue-to-release lifetime exactly:
// the wait until the flush dispatched is "queue"; the fused kernel's
// parallel phase is "compute"; and everything after it — extraY merge,
// flush observer, waiter release — is "merge". So TotalNs == QueueNs +
// ComputeNs + MergeNs by construction, and LingerNs is never written.
func (b *Batcher) execute(batch []*call, cause string) {
	live := batch[:0]
	var tDrop time.Time
	for _, c := range batch {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			b.expired.Add(1)
			cServeExpired.Add(1)
			if c.tr != nil {
				if tDrop.IsZero() {
					tDrop = time.Now()
				}
				wait := int64(tDrop.Sub(c.enq))
				c.tr.QueueNs = wait
				c.tr.TotalNs = wait
			}
			close(c.done)
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	nv := len(live)
	b.flushes.Add(1)
	cServeFlushes.Add(1)
	hServeOccupancy.Observe(int64(nv))
	// The breakdown is reused across flushes; filling it is always on (a
	// handful of time.Now calls per flush) so the stage accounting works
	// with telemetry gated off, like the adapter's span accumulators.
	bd := &b.bd
	bd.Reset()
	tFlush := time.Now()
	if nv == 1 {
		b.solo.Add(1)
		cServeSolo.Add(1)
	} else {
		b.coalesced.Add(int64(nv))
		cServeCoalesced.Add(int64(nv))
	}
	X := b.xs[:0]
	Y := b.ys[:0]
	for _, c := range live {
		X = append(X, c.x)
		Y = append(Y, c.y)
	}
	b.xs, b.ys = X[:0], Y[:0]
	exec.ComputeBatchTraced(b.prep, Y, X, bd)
	// Link the flush into every traced request before the observer runs,
	// so the adapter's epoch stamp completes the trace pre-release.
	trs := b.trs[:0]
	for _, c := range live {
		if tr := c.tr; tr != nil {
			tr.BatchNV = nv
			tr.FlushCause = cause
			tr.Cores = bd.Cores
			tr.MaxCoreNs = bd.MaxCoreNs
			tr.NNZByFormat = bd.NNZByFormat
			trs = append(trs, tr)
		}
	}
	b.trs = trs[:0]
	if b.opts.Observer != nil {
		b.opts.Observer.ObserveFlush(trs)
	}
	now := time.Now()
	for _, c := range live {
		c.nv = nv
		queue := int64(tFlush.Sub(c.enq))
		compute := min(bd.KernelNs, int64(now.Sub(c.enq))-queue)
		merge := int64(now.Sub(c.enq)) - queue - compute
		hStageQueue.Observe(time.Duration(queue))
		hStageCompute.Observe(time.Duration(compute))
		hStageMerge.Observe(time.Duration(merge))
		if tr := c.tr; tr != nil {
			tr.QueueNs = queue
			tr.ComputeNs = compute
			tr.MergeNs = merge
			tr.TotalNs = queue + compute + merge
		}
		hServeLatency.Observe(now.Sub(c.enq))
		close(c.done)
	}
}
