package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RecorderOptions size the flight recorder. The zero value selects the
// defaults noted on each field.
type RecorderOptions struct {
	// Traces is the request-trace ring capacity. Default 256.
	Traces int
	// Dir, when non-empty, is where anomaly snapshots are additionally
	// written as flightrecorder-<unixnano>-<reason>.json files; the last
	// anomaly snapshot is always retrievable in-process via LastAnomaly.
	Dir string
	// MinSnapshotGap rate-limits automatic anomaly snapshots so a
	// sustained anomaly cannot flood the disk; anomalies inside the gap
	// are counted but not re-snapshotted. Default 10s; negative disables
	// the limit (used by tests).
	MinSnapshotGap time.Duration
}

func (o RecorderOptions) withDefaults() RecorderOptions {
	if o.Traces <= 0 {
		o.Traces = 256
	}
	if o.MinSnapshotGap == 0 {
		o.MinSnapshotGap = 10 * time.Second
	}
	return o
}

// Recorder is a fixed-size lock-free flight recorder: a ring of atomic
// pointers to completed request traces that writers overwrite in
// admission order. Record is one atomic add plus one atomic store — no
// locks, no allocation — so it is safe on the request path; Snapshot
// assembles a consistent point-in-time copy by loading the pointers,
// which is safe against concurrent writers because records are
// immutable once recorded (the slot swap drops the old pointer, it
// never mutates the record behind a reader).
type Recorder struct {
	opts   RecorderOptions
	traces []atomic.Pointer[Trace]
	seq    atomic.Uint64

	anomalies   atomic.Int64
	lastAnomaly atomic.Pointer[Snapshot]
	snapMu      sync.Mutex
	lastSnapAt  time.Time
}

// NewRecorder builds a flight recorder. A configured Dir is created
// eagerly so anomaly snapshots never fail just because nobody ran
// mkdir; if creation fails the recorder still works in-process.
func NewRecorder(opts RecorderOptions) *Recorder {
	opts = opts.withDefaults()
	if opts.Dir != "" {
		_ = os.MkdirAll(opts.Dir, 0o755)
	}
	return &Recorder{
		opts:   opts,
		traces: make([]atomic.Pointer[Trace], opts.Traces),
	}
}

// Record retains a completed trace, overwriting the oldest once the ring
// is full. It assigns t.Seq; the trace must not be mutated afterwards.
func (r *Recorder) Record(t *Trace) {
	seq := r.seq.Add(1)
	t.Seq = seq
	r.traces[(seq-1)%uint64(len(r.traces))].Store(t)
}

// TraceCount returns how many traces have ever been recorded (the ring
// retains the last min(TraceCount, capacity) of them).
func (r *Recorder) TraceCount() uint64 { return r.seq.Load() }

// Anomalies counts Anomaly calls (snapshotted or rate-limited).
func (r *Recorder) Anomalies() int64 { return r.anomalies.Load() }

// Snapshot is one consistent copy of the recorder's state.
type Snapshot struct {
	TakenAt time.Time `json:"taken_at"`
	// Reason is why the snapshot was taken: "on-demand" for explicit
	// Snapshot calls, the anomaly kind otherwise.
	Reason string `json:"reason"`
	// TotalTraces counts every trace ever recorded; len(Traces) is what
	// the ring still retained.
	TotalTraces uint64  `json:"total_traces"`
	Traces      []Trace `json:"traces"`
}

// Snapshot copies the retained traces, oldest first.
func (r *Recorder) Snapshot(reason string) Snapshot {
	if reason == "" {
		reason = "on-demand"
	}
	s := Snapshot{
		TakenAt:     time.Now(),
		Reason:      reason,
		TotalTraces: r.seq.Load(),
	}
	s.Traces = make([]Trace, 0, len(r.traces))
	for i := range r.traces {
		if t := r.traces[i].Load(); t != nil {
			s.Traces = append(s.Traces, *t)
		}
	}
	sort.Slice(s.Traces, func(i, j int) bool { return s.Traces[i].Seq < s.Traces[j].Seq })
	return s
}

// WriteJSON renders an on-demand snapshot (the /v1/debug/flightrecorder
// body).
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot(""))
}

// Anomaly reacts to a detected anomaly (shed spike, p99-over-SLO
// window): it snapshots the recorder, keeps the snapshot
// retrievable via LastAnomaly, and — when a Dir is configured — writes
// it to a JSON file. Snapshots are rate-limited by MinSnapshotGap;
// within the gap the anomaly is counted but not re-snapshotted. Returns
// whether a snapshot was taken. Anomalies are rare by construction, so
// the marshal/write cost off the hot path is acceptable inline.
func (r *Recorder) Anomaly(reason string) bool {
	r.anomalies.Add(1)
	r.snapMu.Lock()
	now := time.Now()
	if r.opts.MinSnapshotGap > 0 && !r.lastSnapAt.IsZero() && now.Sub(r.lastSnapAt) < r.opts.MinSnapshotGap {
		r.snapMu.Unlock()
		return false
	}
	r.lastSnapAt = now
	r.snapMu.Unlock()

	s := r.Snapshot(reason)
	r.lastAnomaly.Store(&s)
	if r.opts.Dir != "" {
		name := fmt.Sprintf("flightrecorder-%d-%s.json", now.UnixNano(), sanitizeReason(reason))
		if data, err := json.MarshalIndent(s, "", "  "); err == nil {
			// Best effort: a full disk must not take down serving.
			_ = os.WriteFile(filepath.Join(r.opts.Dir, name), append(data, '\n'), 0o644)
		}
	}
	return true
}

// LastAnomaly returns the most recent anomaly snapshot, or nil if no
// anomaly has been snapshotted yet.
func (r *Recorder) LastAnomaly() *Snapshot { return r.lastAnomaly.Load() }

// sanitizeReason keeps anomaly reasons filename-safe.
func sanitizeReason(reason string) string {
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "anomaly"
	}
	return string(out)
}
