// Package exec defines the common contract of every SpMV implementation in
// the repository (HASpMV and the four baselines) and provides the two ways
// to run one:
//
//   - Compute: real data-parallel execution with one goroutine per
//     simulated core. Go cannot pin goroutines to specific P- or E-cores
//     (the paper pins with GOMP_CPU_AFFINITY), so wall-clock numbers do
//     not reflect AMP asymmetry; correctness and algorithmic overheads do.
//   - Simulate: deterministic timing of the same per-core work assignment
//     on an amp.Machine through the costmodel. This is what reproduces the
//     paper's figures.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/costmodel"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry"
)

// Executor-level telemetry. Counter updates self-gate on the telemetry
// enabled flag, so the disabled cost is one atomic load per counter.
var (
	cParallelCalls  = telemetry.NewCounter("exec_parallel_calls")
	cParallelTasks  = telemetry.NewCounter("exec_parallel_tasks")
	cParallelInline = telemetry.NewCounter("exec_parallel_inline")
	cBatchCalls     = telemetry.NewCounter("exec_batch_calls")
	cBatchFallback  = telemetry.NewCounter("exec_batch_fallback")
	gParallelWidth  = telemetry.NewGauge("exec_parallel_width")
)

// Algorithm is an SpMV method that analyzes a matrix once and then
// multiplies repeatedly (the inspector-executor pattern all five methods
// share).
type Algorithm interface {
	// Name identifies the method in reports ("HASpMV", "CSR5", ...).
	Name() string
	// Prepare analyzes the matrix for the machine and core selection.
	// The returned Prepared may alias the matrix; callers must not mutate
	// it afterwards.
	Prepare(m *amp.Machine, a *sparse.CSR) (Prepared, error)
}

// Prepared is an analyzed matrix ready for multiplication.
type Prepared interface {
	// Compute performs y = A*x. len(x) = Cols, len(y) = Rows.
	Compute(y, x []float64)
	// Assignments exposes the per-core work mapping (nnz spans in the
	// original matrix's coordinate space) for the performance model.
	Assignments() []costmodel.Assignment
}

// BatchPrepared is the optional fused multi-vector interface: algorithms
// that can amortize their index traffic across several right-hand sides
// (block Krylov methods, multi-source PageRank) implement it in addition
// to Prepared.
type BatchPrepared interface {
	Prepared
	// ComputeBatch performs Y[v] = A * X[v] for every vector v.
	ComputeBatch(Y, X [][]float64)
}

// ComputeBatch multiplies a batch of vectors, using the fused path when
// the algorithm provides one and falling back to repeated Compute
// otherwise. Y and X must have equal outer lengths, and every inner
// vector must match the shape of the first (algorithms additionally
// validate inner lengths against the matrix dimensions).
func ComputeBatch(p Prepared, Y, X [][]float64) {
	validateBatch(Y, X)
	cBatchCalls.Add(1)
	if bp, ok := p.(BatchPrepared); ok {
		bp.ComputeBatch(Y, X)
		return
	}
	cBatchFallback.Add(1)
	for v := range X {
		p.Compute(Y[v], X[v])
	}
}

// validateBatch checks the outer shape of a batch call: equal vector
// counts and rectangular X and Y (algorithms additionally validate inner
// lengths against the matrix dimensions).
func validateBatch(Y, X [][]float64) {
	if len(Y) != len(X) {
		panic(fmt.Sprintf("exec: batch size mismatch: %d output vectors for %d right-hand sides", len(Y), len(X)))
	}
	for v := 1; v < len(X); v++ {
		if len(X[v]) != len(X[0]) {
			panic(fmt.Sprintf("exec: batch x[%d] has length %d, want %d (all right-hand sides must have equal length)", v, len(X[v]), len(X[0])))
		}
		if len(Y[v]) != len(Y[0]) {
			panic(fmt.Sprintf("exec: batch y[%d] has length %d, want %d (all output vectors must have equal length)", v, len(Y[v]), len(Y[0])))
		}
	}
}

// group is one Parallel invocation's completion state. It is pooled and
// reused so the steady-state hot path allocates nothing.
type group struct {
	f       func(int)
	pending atomic.Int64
	// done receives exactly one token when pending reaches zero; buffered
	// so the finishing goroutine never blocks.
	done chan struct{}
}

// run executes one index and signals the barrier when it was the last.
func (g *group) run(i int) {
	g.f(i)
	if g.pending.Add(-1) == 0 {
		g.done <- struct{}{}
	}
}

// task is one unit of a Parallel fan-out, handed to a pool worker.
type task struct {
	g *group
	i int
}

var (
	workersOnce sync.Once
	workq       chan task
	groupPool   = sync.Pool{New: func() any {
		return &group{done: make(chan struct{}, 1)}
	}}
)

// startWorkers spins up the persistent worker pool on first use. Workers
// live for the life of the process; pooling (rather than a goroutine per
// core per call) keeps the steady-state Compute path allocation-free,
// which the repository-root telemetry overhead guard asserts.
func startWorkers() {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	workq = make(chan task, 1024)
	for k := 0; k < w; k++ {
		go func() {
			for t := range workq {
				t.g.run(t.i)
			}
		}()
	}
}

// Workers returns the useful data-parallel width for preprocessing
// sweeps: the number of OS threads Go will actually run concurrently.
// Unlike the pool size (which is floored at 2 for deadlock-freedom), this
// is 1 on a single-CPU host, letting chunked sweeps collapse to their
// serial fast path instead of paying handoff costs for no parallelism.
func Workers() int { return runtime.GOMAXPROCS(0) }

// RangeChunks returns how many contiguous chunks ParallelRanges splits n
// elements into: at most parts, at least one, and never so many that a
// chunk holds fewer than minPerChunk elements (the grain below which
// goroutine handoff costs more than the sweep itself).
func RangeChunks(n, parts, minPerChunk int) int {
	if n <= 0 {
		return 0
	}
	if parts < 1 {
		parts = 1
	}
	if minPerChunk < 1 {
		minPerChunk = 1
	}
	c := parts
	if max := n / minPerChunk; c > max {
		c = max
	}
	if c < 1 {
		c = 1
	}
	return c
}

// ParallelRanges splits [0, n) into RangeChunks(n, parts, minPerChunk)
// near-equal contiguous chunks and runs f(chunk, lo, hi) for each through
// Parallel. The chunk boundaries are a pure function of (n, parts,
// minPerChunk), so multi-pass algorithms (counting sorts, prefix sums)
// that call it twice with the same arguments see identical chunking. It
// returns the chunk count; a single chunk runs inline on the caller.
func ParallelRanges(n, parts, minPerChunk int, f func(chunk, lo, hi int)) int {
	c := RangeChunks(n, parts, minPerChunk)
	if c == 0 {
		return 0
	}
	Parallel(c, func(i int) {
		f(i, i*n/c, (i+1)*n/c)
	})
	return c
}

// Parallel runs f(0..n-1) concurrently and waits for all. It stands in for
// the paper's pinned OpenMP parallel-for: each index is one simulated
// core. Work is dispatched to a persistent worker pool; the caller runs
// index 0 itself and then *helps* — while its own barrier is open it
// drains the shared queue rather than blocking, so nested Parallel calls
// (or more groups than workers) make progress instead of deadlocking.
func Parallel(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	cParallelCalls.Add(1)
	cParallelTasks.Add(int64(n))
	gParallelWidth.Set(int64(n))
	if n == 1 {
		f(0)
		return
	}
	workersOnce.Do(startWorkers)
	g := groupPool.Get().(*group)
	g.f = f
	g.pending.Store(int64(n))
	for i := 1; i < n; i++ {
		select {
		case workq <- task{g: g, i: i}:
		default:
			// Queue full: run inline rather than block the dispatch.
			cParallelInline.Add(1)
			g.run(i)
		}
	}
	g.run(0)
	// Help-first barrier: steal queued work (ours or other groups') until
	// our last index signals done. Some runnable goroutine can always
	// receive from workq, so the scheme is deadlock-free by construction.
	for {
		select {
		case <-g.done:
			g.f = nil
			groupPool.Put(g)
			return
		case t := <-workq:
			t.g.run(t.i)
		}
	}
}

// Simulate prices the prepared SpMV on the machine model.
func Simulate(m *amp.Machine, p costmodel.Params, a *sparse.CSR, prep Prepared) costmodel.Result {
	return costmodel.EstimateSpMV(m, p, a, prep.Assignments())
}

// TimePrepare measures the wall-clock preprocessing cost of an algorithm
// (Figure 10). It returns the prepared handle so the measurement includes
// exactly one analysis.
func TimePrepare(alg Algorithm, m *amp.Machine, a *sparse.CSR) (Prepared, time.Duration, error) {
	start := time.Now()
	prep, err := alg.Prepare(m, a)
	return prep, time.Since(start), err
}

// CheckAssignments validates that an assignment list covers every nonzero
// of the matrix exactly once — the fundamental partitioning invariant all
// five methods must satisfy. It is used by tests and by the harness's
// self-check mode.
func CheckAssignments(a *sparse.CSR, asgs []costmodel.Assignment) error {
	return checkCover(a.NNZ(), asgs)
}

func checkCover(nnz int, asgs []costmodel.Assignment) error {
	covered := make([]int32, nnz)
	for _, asg := range asgs {
		for _, sp := range asg.Spans {
			if sp.Lo < 0 || sp.Hi > nnz || sp.Lo > sp.Hi {
				return &CoverageError{Span: sp, NNZ: nnz}
			}
			for k := sp.Lo; k < sp.Hi; k++ {
				covered[k]++
			}
		}
	}
	for k, c := range covered {
		if c != 1 {
			return &CoverageError{Index: k, Count: int(c), NNZ: nnz}
		}
	}
	return nil
}

// CoverageError reports a partitioning defect.
type CoverageError struct {
	Span  costmodel.Span
	Index int
	Count int
	NNZ   int
}

func (e *CoverageError) Error() string {
	if e.Span != (costmodel.Span{}) {
		return fmt.Sprintf("exec: span [%d,%d) outside nnz %d", e.Span.Lo, e.Span.Hi, e.NNZ)
	}
	return fmt.Sprintf("exec: nonzero %d covered %d times", e.Index, e.Count)
}
