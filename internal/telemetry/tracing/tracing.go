// Package tracing is the per-request observability layer of the serving
// stack: where the sibling telemetry package aggregates (counters, phase
// timers, per-core spans), tracing attributes — every request carries one
// Trace record from HTTP accept through the batcher's queue, the fused
// compute, and the extraY merge epilogue, so a slow response can be
// decomposed after the fact into exactly the stage that ate the time.
//
// The hot-path contract mirrors the telemetry package's: the serving
// layers consult one nil-checked pointer per request, and with tracing
// unused the compute and flush paths stay allocation-free (guarded by
// tests in internal/core and internal/server). Trace records are
// allocated once per request at admission — on the handler path, which
// already allocates the response buffers — and every flush-path write
// lands in preallocated fields. The flight recorder (recorder.go) retains
// the last N completed traces in a lock-free ring.
package tracing

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Trace is one request's span record. The three stage durations decompose
// the queue-to-release lifetime exactly:
//
//	TotalNs = QueueNs + ComputeNs + MergeNs
//
// QueueNs is time spent waiting until the dispatcher flushed the
// request's batch; ComputeNs is the parallel kernel phase of the fused
// multiply; MergeNs covers the serial extraY epilogue plus response
// fan-out. A Trace is written by at most one goroutine at a time
// (handler → dispatcher → handler) and must not be mutated after it is
// handed to a Recorder.
type Trace struct {
	// ID is the request id: propagated from X-Request-ID or generated.
	ID string `json:"id"`
	// Matrix is the registry key ("rma10@16") the request multiplied.
	Matrix string `json:"matrix,omitempty"`
	// Seq is the recorder-assigned admission order (set by Record).
	Seq uint64 `json:"seq"`
	// Start is the wall-clock admission time.
	Start time.Time `json:"start"`

	QueueNs int64 `json:"queue_ns"`
	// LingerNs is always 0: the batcher flushes its backlog without a
	// timer. The field and its linger_ns key remain only because the
	// repository benchmark (perfbench) and CI's flight-recorder check
	// still read them; they go with the next benchmark change.
	LingerNs  int64 `json:"linger_ns"`
	ComputeNs int64 `json:"compute_ns"`
	MergeNs   int64 `json:"merge_ns"`
	// TotalNs is the end-to-end time from enqueue to waiter release (or
	// to rejection, for requests that never reached a flush).
	TotalNs int64 `json:"total_ns"`

	// BatchNV is the width of the flush that served the request, and
	// FlushCause why the batch was dispatched ("full", "backlog", "drain").
	BatchNV    int    `json:"batch_nv,omitempty"`
	FlushCause string `json:"flush_cause,omitempty"`

	// Cores and MaxCoreNs link the flush to the executor's per-core
	// spans: the fan-out width and the critical-path core's kernel time.
	Cores     int   `json:"cores,omitempty"`
	MaxCoreNs int64 `json:"max_core_ns,omitempty"`
	// NNZByFormat records the per-region IndexFormat picks the multiply
	// executed with (nonzeros through the []int, u32, u16-delta and
	// diagonal kernels, in that order; no region runs u16-delta, so its
	// slot is 0).
	NNZByFormat [4]int64 `json:"nnz_by_format,omitempty"`

	// Status is the HTTP status the request was answered with, and Err
	// the terminal error for requests that never produced a result.
	Status int    `json:"status,omitempty"`
	Err    string `json:"error,omitempty"`
}

// StageSumNs returns QueueNs+LingerNs+ComputeNs+MergeNs, the
// stage-attributed reconstruction of TotalNs (LingerNs adds 0).
func (t *Trace) StageSumNs() int64 {
	return t.QueueNs + t.LingerNs + t.ComputeNs + t.MergeNs
}

// ComputeBreakdown receives the executor-side split of one traced
// multiply. Callers reuse one instance per dispatcher (Reset between
// flushes), so filling it never allocates.
type ComputeBreakdown struct {
	// KernelNs is the parallel per-core kernel phase (empty-row zeroing
	// and workspace checkout included; both are nanoseconds-scale).
	KernelNs int64
	// MergeNs is the serial extraY conflict epilogue.
	MergeNs int64
	// Cores is the fan-out width (region count), MaxCoreNs the longest
	// single core's kernel time — the critical path of the multiply.
	Cores     int
	MaxCoreNs int64
	// NNZByFormat counts nonzeros executed per column-index format
	// ([]int, u32, u16-delta, diagonal), indexed by core.IndexFormat; the
	// u16-delta slot stays 0.
	NNZByFormat [4]int64
	// Bytes is the modeled memory traffic of the multiply (value, index,
	// pointer and vector streams at the cost model's widths).
	Bytes int64
}

// Reset zeroes the breakdown for reuse.
func (b *ComputeBreakdown) Reset() { *b = ComputeBreakdown{} }

// requestIDBase randomizes the id space per process so ids from restarts
// do not collide; requestIDSeq makes each id unique within the process.
var (
	requestIDBase uint64
	requestIDSeq  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		requestIDBase = binary.LittleEndian.Uint64(b[:])
	} else {
		requestIDBase = uint64(time.Now().UnixNano())
	}
}

// NewRequestID returns a fresh 16-hex-digit request id (process-random
// base XOR a process-unique counter), cheap enough to mint per request.
func NewRequestID() string {
	return fmt.Sprintf("%016x", requestIDBase^requestIDSeq.Add(1))
}
