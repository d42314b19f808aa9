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
		{Index: IndexReference, Value: ValueReference},
		{Exec: ExecSegSum},
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
		{"hperm-short", func(s *PreparedSnapshot) { s.HPerm = s.HPerm[:len(s.HPerm)-1] }},
		{"hrowptr-bad-nnz", func(s *PreparedSnapshot) {
			rp := append([]int(nil), s.HRowPtr...)
			rp[len(rp)-1]++
			s.HRowPtr = rp
		}},
		{"cs-short", func(s *PreparedSnapshot) { s.CS = s.CS[:len(s.CS)-1] }},
		{"bad-proportion", func(s *PreparedSnapshot) { s.Meta.Opts.PProportion = 1.5 }},
		{"negative-rows", func(s *PreparedSnapshot) { s.Meta.Rows = -1 }},
		{"palette-missing", func(s *PreparedSnapshot) {
			s.Meta.ValFormat = ValPalette
			s.PalIdx, s.Pal = nil, nil
		}},
		{"unknown-value-format", func(s *PreparedSnapshot) { s.Meta.ValFormat = ValPalette + 1 }},
		{"segs-short", func(s *PreparedSnapshot) {
			s.Segs = make([]kernel.Segment, 1)
		}},
		{"dia-prefix-past-offsets", func(s *PreparedSnapshot) {
			// Every row claims an offset, but only one is stored.
			s.DiaOff = []int32{0}
			s.RowDia = make([]int32, s.Meta.Rows+1)
			for i := range s.RowDia {
				s.RowDia[i] = int32(i)
			}
			s.DiaInel = make([]int, s.Meta.Rows+1)
		}},
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
