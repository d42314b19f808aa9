package core

import (
	"fmt"

	"haspmv/internal/amp"
	"haspmv/internal/costmodel"
	"haspmv/internal/kernel"
	"haspmv/internal/sparse"
)

// Prepared-state persistence. A Prepared instance is a pile of flat
// arrays (the matrix, the HACSR indirection, the cost prefix sums, the
// u32 column stream, the segment descriptors) plus a
// handful of scalars; everything else — regions, scratch, calibration
// gauges — is cheaply derivable. Snapshot exposes exactly that split so
// internal/store can serialize the arrays as raw sections (and mmap
// them back with zero-copy aliasing) without importing any of the
// package internals, and RestorePrepared rebuilds a servable instance
// from the arrays in O(rows-touched-by-boundaries) time: the partition
// binary searches and cut-row group scan — the same work Repartition
// does — instead of the O(nnz) analysis sweeps Prepare runs.

// SnapshotMeta is the scalar part of a snapshot (everything that is
// not a flat array). It round-trips through JSON in the store's meta
// block.
type SnapshotMeta struct {
	// MachineName pins the machine model the partition was cut for;
	// RestorePrepared refuses a different machine (the proportion,
	// core list and unroll thresholds would all be wrong).
	MachineName string
	// Opts are the fully resolved options (Base and PProportion filled
	// in), so restore never re-runs AutoBase or the proportion model.
	Opts Options
	Rows int
	Cols int
	// HBase/HNumShort are the HACSR threshold fields.
	HBase     int
	HNumShort int
}

// PreparedSnapshot is the full serializable state of a Prepared
// instance: the scalar meta plus every flat array. The slices alias the
// live instance (Snapshot) or the store's mmap window (load); they are
// read-only in both directions.
type PreparedSnapshot struct {
	Meta SnapshotMeta

	// Matrix arrays. ColIdx is nil when Col32 exists: the u32 stream
	// holds the same columns at half the bytes, and every path that
	// walks indices (kernels, boundary walks) prefers it, so the []int
	// reference is not persisted.
	RowPtr []int
	ColIdx []int
	Val    []float64

	// HACSR indirection.
	HPerm        []int
	HRowPtr      []int
	HRowBeginNNZ []int

	EmptyRows []int
	CS        []int

	// The u32 column stream (nil under IndexReference).
	Col32 []uint32

	// Segment descriptors (nil under ExecSerial).
	Segs []kernel.Segment
}

// Snapshot captures the instance's full persistent state. The returned
// slices alias the live instance — treat them as read-only and do not
// hold them across a mutation of the instance (there are none today:
// Repartition only moves boundaries).
func (p *Prepared) Snapshot() *PreparedSnapshot {
	s := &PreparedSnapshot{
		Meta: SnapshotMeta{
			MachineName: p.machine.Name,
			Opts:        p.opts,
			Rows:        p.mat.Rows,
			Cols:        p.mat.Cols,
			HBase:       p.h.Base,
			HNumShort:   p.h.NumShort,
		},
		RowPtr:       p.mat.RowPtr,
		Val:          p.mat.Val,
		HPerm:        p.h.Perm,
		HRowPtr:      p.h.RowPtr,
		HRowBeginNNZ: p.h.RowBeginNNZ,
		EmptyRows:    p.emptyRows,
		CS:           p.cs,
		Col32:        p.col32,
		Segs:         p.segs,
	}
	if p.col32 == nil {
		s.ColIdx = p.mat.ColIdx
	}
	return s
}

// checkSnapshot verifies the cross-array shape invariants a restore
// relies on, so a malformed (but checksum-clean) file fails with an
// error instead of an index panic deep in a kernel.
func checkSnapshot(s *PreparedSnapshot) error {
	m := s.Meta.Rows
	if m < 0 || s.Meta.Cols < 0 {
		return fmt.Errorf("core: snapshot shape %dx%d", m, s.Meta.Cols)
	}
	if len(s.RowPtr) != m+1 {
		return fmt.Errorf("core: snapshot row pointer length %d, want %d", len(s.RowPtr), m+1)
	}
	nnz := s.RowPtr[m]
	if err := checkSize(m, s.Meta.Cols, nnz); err != nil {
		return err
	}
	if nnz < 0 || len(s.Val) != nnz {
		return fmt.Errorf("core: snapshot value length %d, want %d", len(s.Val), nnz)
	}
	if s.ColIdx == nil && s.Col32 == nil && nnz > 0 {
		return fmt.Errorf("core: snapshot has neither reference nor u32 column indices")
	}
	if s.ColIdx != nil && len(s.ColIdx) != nnz {
		return fmt.Errorf("core: snapshot column index length %d, want %d", len(s.ColIdx), nnz)
	}
	if len(s.HPerm) != m || len(s.HRowBeginNNZ) != m || len(s.HRowPtr) != m+1 {
		return fmt.Errorf("core: snapshot hacsr lengths %d/%d/%d, want rows %d",
			len(s.HPerm), len(s.HRowBeginNNZ), len(s.HRowPtr), m)
	}
	if s.HRowPtr[m] != nnz {
		return fmt.Errorf("core: snapshot hacsr nnz %d, want %d", s.HRowPtr[m], nnz)
	}
	if len(s.CS) != m+1 {
		return fmt.Errorf("core: snapshot cost prefix length %d, want %d", len(s.CS), m+1)
	}
	if s.Col32 != nil && len(s.Col32) != nnz {
		return fmt.Errorf("core: snapshot u32 stream length %d, want %d", len(s.Col32), nnz)
	}
	if s.Segs != nil && len(s.Segs) != m {
		return fmt.Errorf("core: snapshot segment count %d, want %d", len(s.Segs), m)
	}
	return nil
}

// RestorePrepared rebuilds a servable Prepared instance from a
// snapshot, reusing every stored array as-is (the snapshot's slices —
// typically an mmap window — become the instance's live streams). Only
// the derived state is recomputed: the partition boundaries from the
// stored cost prefix sums, the cut-row groups, and the triad
// calibration — O(cores·log nnz) work, no O(nnz) sweep.
func RestorePrepared(m *amp.Machine, snap *PreparedSnapshot) (*Prepared, error) {
	if m == nil {
		return nil, fmt.Errorf("core: restore needs a machine")
	}
	if m.Name != snap.Meta.MachineName {
		return nil, fmt.Errorf("core: snapshot prepared for machine %q, restoring on %q", snap.Meta.MachineName, m.Name)
	}
	if err := checkSnapshot(snap); err != nil {
		return nil, err
	}
	opts := snap.Meta.Opts
	cores := m.Cores(opts.Config)
	if len(cores) == 0 {
		return nil, fmt.Errorf("core: restore has no cores for config %v", opts.Config)
	}
	if opts.PProportion <= 0 || opts.PProportion >= 1 {
		return nil, fmt.Errorf("core: snapshot proportion %v outside (0,1)", opts.PProportion)
	}
	mat := &sparse.CSR{
		Rows: snap.Meta.Rows, Cols: snap.Meta.Cols,
		RowPtr: snap.RowPtr, ColIdx: snap.ColIdx, Val: snap.Val,
	}
	h := &HACSR{
		Rows: snap.Meta.Rows, Cols: snap.Meta.Cols,
		Base:        snap.Meta.HBase,
		Perm:        snap.HPerm,
		RowPtr:      snap.HRowPtr,
		RowBeginNNZ: snap.HRowBeginNNZ,
		NumShort:    snap.Meta.HNumShort,
	}
	unroll := make([]int, len(cores))
	for i, c := range cores {
		if g, _ := m.GroupOf(c); g.Kind == amp.Performance {
			unroll[i] = 32
		} else {
			unroll[i] = 64
		}
	}
	p := &Prepared{
		mat: mat, h: h, machine: m,
		opts: opts, emptyRows: snap.EmptyRows, unroll: unroll,
		cs: snap.CS, cores: cores,
		col32: snap.Col32, segs: snap.Segs,
	}
	for _, c := range cores {
		if g, _ := m.GroupOf(c); g.Kind == amp.Performance {
			p.pCount++
		}
	}
	regions := partition(mat, p.col32, h, p.cs, m, cores, opts.PProportion, opts.Metric, opts.OneLevel, nil)
	if err := checkRegions(h, regions); err != nil {
		return nil, err
	}
	p.assignGroups(regions)
	p.recordStreams()
	p.regions.Store(&regions)
	p.triadMBps = int64(costmodel.EstimateTriad(m, costmodel.DefaultParams(), cores, triadElems).GBps * 1000)
	cPrepares.Add(1)
	gRegions.Set(int64(len(regions)))
	return p, nil
}
