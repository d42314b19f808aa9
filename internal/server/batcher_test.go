package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry/tracing"
)

// prepareRepresentative prepares one Table II matrix with the real
// HASpMV algorithm for the batcher tests.
func prepareRepresentative(t *testing.T, name string, scale int) (*sparse.CSR, exec.Prepared) {
	t.Helper()
	a := gen.Representative(name, scale)
	prep, err := core.New(core.Options{}).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatalf("Prepare(%s@%d): %v", name, scale, err)
	}
	return a, prep
}

// TestBatcherBitIdenticalUnderLoad is the serving-layer contract test:
// 64 goroutines hammer one matrix through the batcher and every response
// must be bit-identical to the serial Multiply of the same right-hand
// side, no matter which batch width served it. Run with -race.
func TestBatcherBitIdenticalUnderLoad(t *testing.T) {
	a, prep := prepareRepresentative(t, "rma10", 16)

	const patterns = 8
	X := make([][]float64, patterns)
	refs := make([][]float64, patterns)
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < patterns; p++ {
		X[p] = make([]float64, a.Cols)
		for i := range X[p] {
			X[p][i] = rng.NormFloat64()
		}
		refs[p] = make([]float64, a.Rows)
		prep.Compute(refs[p], X[p])
	}

	b := NewBatcher(prep, BatcherOptions{})
	defer b.Close()

	const clients = 64
	const perClient = 12
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := make([]float64, a.Rows)
			for j := 0; j < perClient; j++ {
				p := (g + j) % patterns
				nv, err := b.Submit(context.Background(), y, X[p])
				if err != nil {
					errCh <- err
					return
				}
				if nv < 1 || nv > b.opts.MaxBatch {
					t.Errorf("batch width %d outside [1,%d]", nv, b.opts.MaxBatch)
					return
				}
				for i := range y {
					if y[i] != refs[p][i] {
						t.Errorf("client %d req %d: y[%d] = %x, serial Multiply gives %x (batch width %d)",
							g, j, i, y[i], refs[p][i], nv)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("Submit: %v", err)
	}

	st := b.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("Requests = %d, want %d", st.Requests, clients*perClient)
	}
	if st.Coalesced+st.Solo != st.Requests {
		t.Fatalf("Coalesced %d + Solo %d != Requests %d", st.Coalesced, st.Solo, st.Requests)
	}
	if st.Coalesced == 0 {
		t.Fatalf("64 concurrent clients never coalesced a batch: %+v", st)
	}
	t.Logf("stats: %+v mean occupancy %.2f", st, st.MeanOccupancy())
}

// TestBatcherDeadlineExpiry: a request whose context dies while it
// waits behind a held flush is dropped with the context's error when
// its batch flushes, and never computed.
func TestBatcherDeadlineExpiry(t *testing.T) {
	prep := newBlockingPrep()
	b := NewBatcher(prep, BatcherOptions{})
	defer b.Close()

	held := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), make([]float64, 2), []float64{1, 2})
		held <- err
	}()
	<-prep.entered // the dispatcher is computing the held request

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	expired := make(chan error, 1)
	go func() {
		y := make([]float64, 123) // wrong length on purpose: must never reach Compute
		_, err := b.Submit(ctx, y, nil)
		expired <- err
	}()
	waitQueued(t, b, 1)
	<-ctx.Done()
	close(prep.release)

	if err := <-expired; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit past its deadline: err = %v, want DeadlineExceeded", err)
	}
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if st := b.Stats(); st.Expired != 1 || st.Flushes != 1 {
		t.Fatalf("stats after expired call: %+v, want Expired=1 Flushes=1 (the held request alone)", st)
	}
	if n := len(prep.entered); n != 0 {
		t.Fatalf("expired request reached Compute (%d extra entries)", n)
	}
}

// waitQueued polls until b's queue holds n requests.
func waitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		depth := len(b.queue)
		b.mu.Unlock()
		if depth == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", depth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingPrep is a fake Prepared whose Compute blocks until released,
// letting tests hold the dispatcher busy deterministically.
type blockingPrep struct {
	entered chan struct{} // receives one token per Compute entry
	release chan struct{} // Compute returns when it can receive
}

func newBlockingPrep() *blockingPrep {
	return &blockingPrep{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (p *blockingPrep) Compute(y, x []float64) {
	p.entered <- struct{}{}
	<-p.release
	for i := range y {
		y[i] = x[i] * 2
	}
}

func (p *blockingPrep) Assignments() []costmodel.Assignment { return nil }

// TestBatcherQueueFullSheds: with the dispatcher stuck in a compute and
// the queue at capacity, Submit sheds immediately with ErrQueueFull.
func TestBatcherQueueFullSheds(t *testing.T) {
	prep := newBlockingPrep()
	b := NewBatcher(prep, BatcherOptions{MaxBatch: 1, QueueCap: 2})
	defer b.Close()

	x := []float64{1, 2}
	results := make(chan error, 3)
	submit := func() {
		y := make([]float64, 2)
		_, err := b.Submit(context.Background(), y, x)
		results <- err
	}
	go submit()
	<-prep.entered // dispatcher is now stuck computing request 1, queue empty
	go submit()
	go submit()
	waitQueued(t, b, 2) // both block in Submit, not in Compute

	y := make([]float64, 2)
	if _, err := b.Submit(context.Background(), y, x); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over capacity: err = %v, want ErrQueueFull", err)
	}
	if st := b.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}

	close(prep.release) // let everything finish
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request %d failed: %v", i, err)
		}
	}
}

// TestBatcherGracefulDrain: Close lets queued requests finish and
// rejects new ones with ErrDraining.
func TestBatcherGracefulDrain(t *testing.T) {
	prep := newBlockingPrep()
	b := NewBatcher(prep, BatcherOptions{MaxBatch: 1, QueueCap: 16})

	x := []float64{3, 4}
	const queued = 5
	results := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			y := make([]float64, 2)
			_, err := b.Submit(context.Background(), y, x)
			if err == nil && (y[0] != 6 || y[1] != 8) {
				err = errors.New("wrong result after drain")
			}
			results <- err
		}()
	}
	<-prep.entered // dispatcher busy; the rest are queued or arriving

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	close(prep.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after release")
	}
	// Every request submitted before Close must have completed successfully.
	got := 0
	for {
		select {
		case err := <-results:
			if err != nil && !errors.Is(err, ErrDraining) {
				t.Fatalf("drained request failed: %v", err)
			}
			got++
			if got == queued {
				goto drained
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d requests completed after drain", got, queued)
		}
	}
drained:
	if _, err := b.Submit(context.Background(), make([]float64, 2), x); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Close: err = %v, want ErrDraining", err)
	}
}

// TestBatcherFlushesBacklog: the dispatcher coalesces on backlog, not on
// a timer. A lone request on an idle batcher is computed at once in a
// batch of one; requests that queue while a flush computes are served
// together as soon as it ends, MaxBatch at a time. Every trace's stages
// sum to its total, with nothing attributed to lingering.
func TestBatcherFlushesBacklog(t *testing.T) {
	prep := newBlockingPrep()
	const maxBatch = 4
	b := NewBatcher(prep, BatcherOptions{MaxBatch: maxBatch})
	defer b.Close()

	type result struct {
		nv  int
		err error
		y   []float64
		tr  *tracing.Trace
	}
	x := []float64{1, 2}
	submit := func(out chan<- result) {
		y := make([]float64, 2)
		tr := &tracing.Trace{}
		nv, err := b.SubmitTraced(context.Background(), y, x, tr)
		out <- result{nv, err, y, tr}
	}
	check := func(what string, r result, nv int, cause string) {
		t.Helper()
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		if r.y[0] != 2 || r.y[1] != 4 {
			t.Fatalf("%s: y = %v, want [2 4]", what, r.y)
		}
		tr := r.tr
		if r.nv != nv || tr.BatchNV != nv || tr.FlushCause != cause {
			t.Fatalf("%s: nv %d, trace BatchNV %d cause %q; want %d %q", what, r.nv, tr.BatchNV, tr.FlushCause, nv, cause)
		}
		if tr.LingerNs != 0 || tr.TotalNs <= 0 || tr.StageSumNs() != tr.TotalNs {
			t.Fatalf("%s: stages %d+%d+%d+%d, total %d; want linger 0 and sum == total",
				what, tr.QueueNs, tr.LingerNs, tr.ComputeNs, tr.MergeNs, tr.TotalNs)
		}
	}

	lone := make(chan result, 1)
	go submit(lone)
	<-prep.entered
	prep.release <- struct{}{}
	check("lone request", <-lone, 1, "backlog")

	// Hold the dispatcher in a flush while more than MaxBatch requests
	// queue behind it.
	held := make(chan result, 1)
	go submit(held)
	<-prep.entered
	const queued = maxBatch + 2
	backlog := make(chan result, queued)
	for i := 0; i < queued; i++ {
		go submit(backlog)
	}
	waitQueued(t, b, queued)
	close(prep.release)
	check("held request", <-held, 1, "backlog")

	widths := map[int]int{}
	for i := 0; i < queued; i++ {
		r := <-backlog
		switch r.nv {
		case maxBatch:
			check("first backlog flush", r, maxBatch, "full")
		default:
			check("second backlog flush", r, queued-maxBatch, "backlog")
		}
		widths[r.nv]++
	}
	if widths[maxBatch] != maxBatch || widths[queued-maxBatch] != queued-maxBatch {
		t.Fatalf("backlog served in widths %v, want %d×%d and %d×%d", widths,
			maxBatch, maxBatch, queued-maxBatch, queued-maxBatch)
	}
	if st := b.Stats(); st.Flushes != 4 || st.Solo != 2 || st.Coalesced != queued {
		t.Fatalf("stats %+v, want 4 flushes: 2 solo, then %d coalesced", st, queued)
	}
}
