package tracing

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewRequestIDUniqueAndWellFormed(t *testing.T) {
	const n = 4096
	seen := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex digits", id)
		}
		if strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("id %q: not lowercase hex", id)
		}
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate id %q after %d draws", id, i)
		}
		seen[id] = struct{}{}
	}
}

func TestStageSumNs(t *testing.T) {
	tr := Trace{QueueNs: 5, LingerNs: 7, ComputeNs: 11, MergeNs: 13}
	if got := tr.StageSumNs(); got != 36 {
		t.Fatalf("StageSumNs = %d, want 36", got)
	}
}

func TestComputeBreakdownReset(t *testing.T) {
	b := ComputeBreakdown{KernelNs: 1, MergeNs: 2, Cores: 3, MaxCoreNs: 4, Bytes: 5}
	b.NNZByFormat = [4]int64{1, 2, 3, 4}
	b.Reset()
	if b != (ComputeBreakdown{}) {
		t.Fatalf("Reset left non-zero breakdown: %+v", b)
	}
}

func TestRecorderWrapAround(t *testing.T) {
	const capacity = 8
	r := NewRecorder(RecorderOptions{Traces: capacity})
	const total = 2*capacity + 3
	for i := 1; i <= total; i++ {
		r.Record(&Trace{ID: NewRequestID(), TotalNs: int64(i)})
	}
	if got := r.TraceCount(); got != total {
		t.Fatalf("TraceCount = %d, want %d", got, total)
	}
	s := r.Snapshot("")
	if s.TotalTraces != total {
		t.Fatalf("snapshot TotalTraces = %d, want %d", s.TotalTraces, total)
	}
	if len(s.Traces) != capacity {
		t.Fatalf("snapshot retained %d traces, want %d", len(s.Traces), capacity)
	}
	// The ring must hold exactly the newest `capacity` records, in order.
	for i, tr := range s.Traces {
		wantSeq := uint64(total - capacity + 1 + i)
		if tr.Seq != wantSeq {
			t.Fatalf("trace %d has seq %d, want %d", i, tr.Seq, wantSeq)
		}
		if tr.TotalNs != int64(wantSeq) {
			t.Fatalf("trace seq %d has TotalNs %d, want %d", tr.Seq, tr.TotalNs, wantSeq)
		}
	}
}

// TestRecorderConcurrentWritersAndReaders is the race test the recorder's
// lock-free design exists for: writers recording traces while
// readers snapshot and serialize, under `go test -race`.
func TestRecorderConcurrentWritersAndReaders(t *testing.T) {
	r := NewRecorder(RecorderOptions{Traces: 16, MinSnapshotGap: -1})
	const writers, perWriter, readers = 4, 500, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(&Trace{ID: NewRequestID(), QueueNs: int64(i), TotalNs: int64(i)})
				if i%200 == 0 {
					r.Anomaly("p99-over-slo")
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot("")
				for i := 1; i < len(s.Traces); i++ {
					if s.Traces[i].Seq <= s.Traces[i-1].Seq {
						t.Errorf("snapshot traces out of order: %d then %d", s.Traces[i-1].Seq, s.Traces[i].Seq)
						return
					}
				}
				var buf bytes.Buffer
				if err := r.WriteJSON(&buf); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := r.TraceCount(); got != writers*perWriter {
		t.Fatalf("TraceCount = %d, want %d", got, writers*perWriter)
	}
	if r.Anomalies() == 0 {
		t.Fatal("expected anomalies to have been counted")
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(RecorderOptions{Traces: 4})
	tr := &Trace{ID: "fixed"}
	allocs := testing.AllocsPerRun(100, func() { r.Record(tr) })
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f times per op, want 0", allocs)
	}
}

func TestAnomalySnapshotAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder(RecorderOptions{Traces: 4, Dir: dir, MinSnapshotGap: time.Hour})
	r.Record(&Trace{ID: "abc", Status: 200, QueueNs: 1, LingerNs: 2, ComputeNs: 3, MergeNs: 4, TotalNs: 10})

	if !r.Anomaly("shed spike") {
		t.Fatal("first anomaly should snapshot")
	}
	if r.Anomaly("shed spike") {
		t.Fatal("second anomaly inside MinSnapshotGap should be rate-limited")
	}
	if got := r.Anomalies(); got != 2 {
		t.Fatalf("Anomalies = %d, want 2", got)
	}

	last := r.LastAnomaly()
	if last == nil {
		t.Fatal("LastAnomaly returned nil after snapshot")
	}
	if last.Reason != "shed spike" {
		t.Fatalf("snapshot reason %q", last.Reason)
	}
	if len(last.Traces) != 1 || last.Traces[0].ID != "abc" {
		t.Fatalf("snapshot traces %+v", last.Traces)
	}

	files, err := filepath.Glob(filepath.Join(dir, "flightrecorder-*-shed-spike.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files %v (err %v), want exactly one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("snapshot file is not valid JSON: %v", err)
	}
	if s.TotalTraces != 1 || s.Traces[0].StageSumNs() != 10 {
		t.Fatalf("decoded snapshot %+v", s)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRecorder(RecorderOptions{Traces: 4})
	r.Record(&Trace{ID: NewRequestID(), Matrix: "rma10@16", Status: 200})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if s.Reason != "on-demand" || len(s.Traces) != 1 || s.Traces[0].Matrix != "rma10@16" {
		t.Fatalf("round-tripped snapshot %+v", s)
	}
}

func TestSanitizeReason(t *testing.T) {
	if got := sanitizeReason("p99 over SLO!"); got != "p99-over-SLO-" {
		t.Fatalf("sanitizeReason = %q", got)
	}
	if got := sanitizeReason(""); got != "anomaly" {
		t.Fatalf("sanitizeReason empty = %q", got)
	}
}
