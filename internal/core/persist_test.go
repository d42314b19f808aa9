package core

import (
	"math"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/kernel"
)

func snapshotOf(t *testing.T, opts Options) (*Prepared, *PreparedSnapshot) {
	t.Helper()
	m := amp.IntelI913900KF()
	a := algtest.Matrix("powerlaw")
	prep, err := New(opts).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.(*Prepared)
	return p, p.Snapshot()
}

// Restore from a snapshot must serve the exact bits of the original
// instance — same partition, formats, modes and kernels.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, opts := range []Options{
		{},
		{Index: IndexReference},
		{Exec: ExecSerial},
		{DisableReorder: true},
		{Metric: NNZCost, OneLevel: true},
	} {
		p, snap := snapshotOf(t, opts)
		r, err := RestorePrepared(amp.IntelI913900KF(), snap)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		rows, cols := snap.Meta.Rows, snap.Meta.Cols
		x := make([]float64, cols)
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		y0, y1 := make([]float64, rows), make([]float64, rows)
		p.Compute(y0, x)
		r.Compute(y1, x)
		for i := range y0 {
			if math.Float64bits(y0[i]) != math.Float64bits(y1[i]) {
				t.Fatalf("%+v: row %d differs after restore", opts, i)
			}
		}
		if len(r.Regions()) != len(p.Regions()) {
			t.Fatalf("%+v: region count %d vs %d", opts, len(r.Regions()), len(p.Regions()))
		}
	}
}

// A checksum-clean but shape-inconsistent snapshot must fail with an
// error, not an index panic inside a kernel.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	m := amp.IntelI913900KF()
	muts := []struct {
		name string
		mut  func(s *PreparedSnapshot)
	}{
		{"nil-machine", func(s *PreparedSnapshot) { s.Meta.MachineName = "no-such-machine" }},
		{"rowptr-short", func(s *PreparedSnapshot) { s.RowPtr = s.RowPtr[:len(s.RowPtr)-1] }},
		{"val-short", func(s *PreparedSnapshot) { s.Val = s.Val[:len(s.Val)-1] }},
		{"no-cols", func(s *PreparedSnapshot) { s.ColIdx, s.Col32 = nil, nil }},
		{"colidx-short", func(s *PreparedSnapshot) { s.ColIdx = make([]int, len(s.Val)-1) }},
		{"col32-short", func(s *PreparedSnapshot) { s.Col32 = s.Col32[:len(s.Col32)-1] }},
		{"hperm-short", func(s *PreparedSnapshot) { s.HPerm = s.HPerm[:len(s.HPerm)-1] }},
		{"hbegin-short", func(s *PreparedSnapshot) { s.HRowBeginNNZ = s.HRowBeginNNZ[:len(s.HRowBeginNNZ)-1] }},
		{"hrowptr-bad-nnz", func(s *PreparedSnapshot) {
			rp := append([]int(nil), s.HRowPtr...)
			rp[len(rp)-1]++
			s.HRowPtr = rp
		}},
		{"cs-short", func(s *PreparedSnapshot) { s.CS = s.CS[:len(s.CS)-1] }},
		{"bad-proportion", func(s *PreparedSnapshot) { s.Meta.Opts.PProportion = 1.5 }},
		{"negative-rows", func(s *PreparedSnapshot) { s.Meta.Rows = -1 }},
		{"negative-cols", func(s *PreparedSnapshot) { s.Meta.Cols = -1 }},
		{"segs-short", func(s *PreparedSnapshot) {
			s.Segs = make([]kernel.Segment, 1)
		}},
		{"cols-past-32-bit", func(s *PreparedSnapshot) { s.Meta.Cols = past32() }},
	}
	for _, tc := range muts {
		t.Run(tc.name, func(t *testing.T) {
			_, snap := snapshotOf(t, Options{})
			tc.mut(snap)
			if _, err := RestorePrepared(m, snap); err == nil {
				t.Fatal("malformed snapshot restored without error")
			}
		})
	}
	if _, err := RestorePrepared(nil, snapshotOf2(t)); err == nil {
		t.Fatal("nil machine accepted")
	}
}

func snapshotOf2(t *testing.T) *PreparedSnapshot {
	_, s := snapshotOf(t, Options{})
	return s
}

// A snapshot holds the arrays its instance's multiply path reads: the
// default keeps the u32 stream and the segment descriptors but not the
// []int indices, IndexReference keeps the []int indices instead of the
// u32 stream, and ExecSerial keeps no descriptors.
func TestSnapshotHoldsWhatThePathReads(t *testing.T) {
	for _, tc := range []struct {
		opts                Options
		colIdx, col32, segs bool
	}{
		{Options{}, false, true, true},
		{Options{Index: IndexReference}, true, false, true},
		{Options{Exec: ExecSerial}, false, true, false},
	} {
		_, s := snapshotOf(t, tc.opts)
		if got := [3]bool{s.ColIdx != nil, s.Col32 != nil, s.Segs != nil}; got != [3]bool{tc.colIdx, tc.col32, tc.segs} {
			t.Errorf("%+v: ColIdx/Col32/Segs present %v, want %v", tc.opts, got, [3]bool{tc.colIdx, tc.col32, tc.segs})
		}
	}
}
