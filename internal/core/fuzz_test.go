package core

import (
	"math"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/sparse"
)

// fuzzMatrix decodes a byte string into a small CSR matrix: the first
// two bytes pick the shape (1..32 rows and columns), then each (row,
// col, value) triple adds one entry. Duplicates are summed by ToCSR, a
// value byte of 0 stays an explicit stored zero, and leftover bytes are
// ignored — every input decodes to *some* valid matrix, so the fuzzer
// explores structure (empty rows, hub rows, diagonals) rather than
// fighting a parser. The second return drives algorithm options.
//
// A column byte of 200 or more selects the wide shape instead: 66556
// columns with entries at 261-column strides, so row spans straddle a
// 2^16 span — column bytes spanning up to 251 give row spans <= 65511,
// 252 or more give >= 65772 — and pin the u32 stream (and the dia
// fallback rows) on columns past 2^16.
func fuzzMatrix(data []byte) (*sparse.CSR, byte) {
	if len(data) < 2 {
		return nil, 0
	}
	rows := 1 + int(data[0])%32
	cols, colStride := 1+int(data[1])%32, 1
	if data[1] >= 200 {
		cols, colStride = 255*261+1, 261
	}
	var optByte byte
	if len(data) > 2 {
		optByte = data[2]
	}
	c := &sparse.COO{Rows: rows, Cols: cols}
	for k := 3; k+2 < len(data); k += 3 {
		i := int(data[k]) % rows
		j := int(data[k+1]) * colStride % cols
		v := float64(int8(data[k+2])) / 4
		c.Add(i, j, v)
	}
	return c.ToCSR(), optByte
}

// fuzzOptions maps the option byte onto the ablation space: reorder
// on/off, one- vs two-level partition, a handful of explicit base
// thresholds around the short/long boundary, the index-stream mode
// (bits 5-6: auto, u32, reference, forced-diagonal), and (bit 7) forced
// segmented-sum execution — the oracle instance always pins ExecSerial,
// so that bit turns every bit-equality stage into
// segsum-vs-serial-epilogue.
func fuzzOptions(b byte) Options {
	var mode IndexMode
	switch (b >> 5) & 3 {
	case 1:
		mode = IndexU32
	case 2:
		mode = IndexReference
	case 3:
		mode = IndexForceDia
	}
	var ex ExecMode
	if b&128 != 0 {
		ex = ExecSegSum
	}
	return Options{
		DisableReorder: b&1 != 0,
		OneLevel:       b&2 != 0,
		Base:           int(b>>2) % 8 * 4, // 0 (auto), 4, 8, ..., 28
		Index:          mode,
		Exec:           ex,
	}
}

// referencePrepared builds the []int oracle instance for a prepared
// compressed instance: same options, reference index mode, serial
// epilogue execution, and the resolved proportion pinned so both cut
// identical regions (the auto proportion is stream-aware, so leaving it
// auto could move boundaries). Pinning ExecSerial means a primary
// instance running segmented-sum is checked bit-for-bit against the
// extraY serial-epilogue path it replaces.
func referencePrepared(t *testing.T, hp *Prepared, a *sparse.CSR, opts Options) *Prepared {
	t.Helper()
	refOpts := opts
	refOpts.Index = IndexReference
	refOpts.Exec = ExecSerial
	refOpts.PProportion = hp.Plan().PProportion
	ref, err := New(refOpts).Prepare(amp.IntelI912900KF(), a)
	if err != nil {
		t.Fatalf("reference Prepare failed (opts %+v): %v", refOpts, err)
	}
	return ref.(*Prepared)
}

// segsumMegaRowSeed builds the mega-row fuzz seed: option bit 7 forces
// segmented-sum, row 2 of 6 holds 20 of 23 entries so the equal-nnz cut
// splits it across most of the 16 regions.
func segsumMegaRowSeed() []byte {
	data := []byte{5, 31, 128}
	for j := 0; j < 20; j++ {
		data = append(data, 2, byte(j), byte(40+j))
	}
	return append(data, 0, 1, 9, 1, 3, 8, 3, 5, 7)
}

// diaDefectSeed builds the banded-with-defect fuzz seed: option bits 5-6
// force the diagonal format, rows 0-7 are 8-long contiguous runs
// (offset eligible) and row 5 is an off-band defect row of isolated
// entries, so diagonal regions mix offset rows with the per-row u32
// fallback.
func diaDefectSeed() []byte {
	data := []byte{7, 30, 96}
	for i := 0; i < 8; i++ {
		if i == 5 {
			continue
		}
		// 8-wide bands: one run long enough to clear diaMinSingleRunLen.
		for j := 0; j < 8; j++ {
			data = append(data, byte(i), byte(3*i+j), byte(4+i+j))
		}
	}
	return append(data, 5, 0, 8, 5, 9, 9, 5, 20, 10, 5, 28, 11, 5, 14, 12)
}

// adjacencySeed builds the 0/1 adjacency fuzz seed: every value byte is
// 4 (stored value exactly 1.0), so the matrix holds a single value, and
// row 3 holds 16 of the nonzeros so the equal-nnz cut straddles a region
// boundary.
func adjacencySeed() []byte {
	data := []byte{31, 31, 0}
	for j := 0; j < 16; j++ {
		data = append(data, 3, byte(2*j), 4)
	}
	for i := 0; i < 32; i++ {
		if i == 3 {
			continue
		}
		data = append(data, byte(i), byte(i), 4, byte(i), byte((i*7+3)%32), 4)
	}
	return data
}

// shuffledBandSeed builds the short/long-sort fuzz seed: a 16-row band
// whose rows hold 1 to 6 entries, written in scrambled row order, with
// the reorder on and an explicit base of 4 (option byte 4) — the rows of
// 4 or more entries move to the tail in reverse order, so the
// reordered-vs-natural-order stage compares two different orders.
func shuffledBandSeed() []byte {
	data := []byte{15, 31, 4}
	for i := 0; i < 16; i++ {
		r := (i*7 + 3) % 16
		for j := 0; j <= r%6; j++ {
			data = append(data, byte(r), byte(r+j), byte(5+r+j))
		}
	}
	return data
}

// FuzzPrepareCompute feeds random small matrices through the full
// HASpMV pipeline — HACSR reorder, cost partition, conflict-resolving
// executor — checks the result against the naive reference multiply plus
// the nonzero-coverage invariant, then repartitions with an input-derived
// plan and re-checks both. Seed corpus under
// testdata/fuzz/FuzzPrepareCompute covers the structural extremes:
// all-empty rows, a single dense row, all-short rows, all-long rows, a
// weighted repartition after reorder on a mostly-empty matrix, two
// forced-segsum shapes (option bit 7): an all-one-row matrix and a
// mega-row holding most of the nonzeros, both of which cut one row
// across several regions so the parallel fragment patch is exercised,
// and the pluggable-format shapes: a forced-diagonal banded matrix with
// an off-band defect row and a single-value 0/1 adjacency matrix whose
// hub row straddles a region boundary, plus a scrambled band the
// short/long sort permutes, forced segsum over a forced-diagonal or
// one-level partition, and the adjacency matrix under forced segsum
// (checked bit for bit against the []int reference).
func FuzzPrepareCompute(f *testing.F) {
	f.Add([]byte{7, 7, 0})                                                                                                                 // 8x8, all rows empty
	f.Add([]byte{0, 15, 1, 0, 0, 8, 0, 5, 16, 0, 11, 200})                                                                                 // single row, reorder off
	f.Add([]byte{31, 31, 2, 1, 1, 4, 9, 9, 8, 30, 2, 252})                                                                                 // sparse diagonal-ish, one-level
	f.Add([]byte{3, 3, 12, 0, 0, 1, 0, 1, 2, 0, 2, 3, 1, 0, 4, 1, 1, 5, 1, 2, 6, 2, 0, 7, 2, 1, 8, 2, 2, 9, 3, 0, 10, 3, 1, 11, 3, 2, 12}) // dense 4x3
	f.Add([]byte{15, 7, 0, 201, 0, 0, 8, 0, 5, 200, 1, 40, 5, 3, 12})                                                                      // empty rows + weighted repartition
	f.Add([]byte{7, 200, 0, 0, 10, 40, 0, 20, 41, 1, 0, 42, 1, 252, 43, 2, 0, 44, 2, 251, 45})                                             // wide: rows around a >2^16-span row, all on u32
	f.Add([]byte{0, 255, 0, 0, 0, 10, 0, 252, 20, 0, 100, 30})                                                                             // wide: single row spanning past 2^16 columns
	f.Add([]byte{0, 15, 128, 0, 0, 8, 0, 5, 16, 0, 11, 200, 0, 3, 7, 0, 7, 9, 0, 13, 11, 0, 1, 5, 0, 9, 3})                                // forced segsum: the whole matrix is one row, cut across many regions
	f.Add(segsumMegaRowSeed())                                                                                                             // forced segsum: one mega-row spanning 3+ regions among short rows
	f.Add(diaDefectSeed())                                                                                                                 // forced dia: banded rows + one off-band defect row on the u32 fallback
	f.Add(adjacencySeed())                                                                                                                 // 0/1 adjacency: one value, a hub row across a region boundary
	f.Add(shuffledBandSeed())                                                                                                              // scrambled band of 1-6 entry rows, base 4: sorted vs natural order
	f.Add(append([]byte{7, 30, 224}, diaDefectSeed()[3:]...))                                                                              // forced dia under forced segsum
	f.Add(append([]byte{5, 31, 131}, segsumMegaRowSeed()[3:]...))                                                                          // forced segsum mega-row, one-level partition, reorder off
	f.Add(append([]byte{31, 31, 128}, adjacencySeed()[3:]...))                                                                             // 0/1 adjacency under forced segsum
	f.Add(append([]byte{31, 31, 3}, adjacencySeed()[3:]...))                                                                               // 0/1 adjacency, natural order, one-level partition: the hub row stays row 3
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // keep Prepare cost bounded
		}
		a, optByte := fuzzMatrix(data)
		if a == nil {
			return
		}
		opts := fuzzOptions(optByte)
		prep, err := New(opts).Prepare(amp.IntelI912900KF(), a)
		if err != nil {
			t.Fatalf("Prepare failed on a valid %dx%d matrix (%d nnz, opts %+v): %v",
				a.Rows, a.Cols, a.NNZ(), opts, err)
		}
		if err := exec.CheckAssignments(a, prep.Assignments()); err != nil {
			t.Fatalf("assignment coverage broken (opts %+v): %v", opts, err)
		}
		hp := prep.(*Prepared)
		const tol = 1e-9

		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = 1 + float64(i%5)/4
		}
		y := make([]float64, a.Rows)
		prep.Compute(y, x)
		want := make([]float64, a.Rows)
		a.MulVec(want, x)
		for i := range y {
			diff := math.Abs(y[i] - want[i])
			if diff > tol*(1+math.Abs(want[i])) {
				t.Fatalf("y[%d] = %v, naive reference %v (matrix %dx%d nnz %d, opts %+v)",
					i, y[i], want[i], a.Rows, a.Cols, a.NNZ(), opts)
			}
		}

		// Bit-equality against the []int reference stream: index
		// compression is only legal because on the same partition it
		// reproduces the reference kernels' float64 bits exactly.
		refPrep := referencePrepared(t, hp, a, opts)
		ref := make([]float64, a.Rows)
		refPrep.Compute(ref, x)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("compressed y[%d] = %x, []int reference %x (matrix %dx%d nnz %d, opts %+v)",
					i, math.Float64bits(y[i]), math.Float64bits(ref[i]), a.Rows, a.Cols, a.NNZ(), opts)
			}
		}

		// Repartition with an input-derived plan and re-check everything:
		// boundary moves must preserve coverage and the computed product for
		// any valid proportion/weight combination, including on matrices
		// with empty rows after a reorder.
		var pb byte
		if len(data) > 4 {
			pb = data[4]
		}
		plan := Plan{PProportion: 0.05 + 0.9*float64(pb)/255}
		if pb&1 != 0 {
			plan.Weights = make([]float64, len(hp.Regions()))
			for i := range plan.Weights {
				plan.Weights[i] = 0.1 + float64((int(pb)+7*i)%16)/4
			}
		}
		if err := hp.Repartition(plan); err != nil {
			t.Fatalf("Repartition(%+v) failed on a valid plan (matrix %dx%d nnz %d, opts %+v): %v",
				plan, a.Rows, a.Cols, a.NNZ(), opts, err)
		}
		if err := exec.CheckAssignments(a, hp.Assignments()); err != nil {
			t.Fatalf("assignment coverage broken after repartition (plan %+v, opts %+v): %v",
				plan, opts, err)
		}
		hp.Compute(y, x)
		for i := range y {
			diff := math.Abs(y[i] - want[i])
			if diff > tol*(1+math.Abs(want[i])) {
				t.Fatalf("after repartition: y[%d] = %v, reference %v (plan %+v, opts %+v)",
					i, y[i], want[i], plan, opts)
			}
		}

		// The same boundary move on the reference instance must keep the two
		// bit-identical: Repartition re-picks per-region formats without
		// rebuilding streams, and a region that drifts across a diagonal
		// eligibility edge must fall back to u32, not drift bits.
		if err := refPrep.Repartition(plan); err != nil {
			t.Fatalf("reference Repartition(%+v) failed: %v", plan, err)
		}
		refPrep.Compute(ref, x)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("after repartition: compressed y[%d] = %x, []int reference %x (plan %+v, opts %+v)",
					i, math.Float64bits(y[i]), math.Float64bits(ref[i]), plan, opts)
			}
		}
		// A weightless move must land where a fresh Prepare at the plan's
		// proportion cuts: the same bits as the reference prepared there.
		if plan.Weights == nil {
			freshRef := referencePrepared(t, hp, a, opts)
			freshRef.Compute(ref, x)
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("after repartition: y[%d] = %x, reference prepared at proportion %v %x (opts %+v)",
						i, math.Float64bits(y[i]), plan.PProportion, math.Float64bits(ref[i]), opts)
				}
			}
		}

		// Reorder bit-identity against the pinned natural-order oracle:
		// under a row-edge partition (RowCost never cuts inside a row) with
		// the serial epilogue, every y[i] is one dot product over row i's
		// entries in column order — so the length-sorted order must
		// reproduce the natural ordering bit for bit, before and after a
		// repartition.
		roOpts := Options{
			Metric: RowCost, Index: IndexReference, Exec: ExecSerial,
			Base: opts.Base, DisableReorder: opts.DisableReorder,
		}
		rp, err := New(roOpts).Prepare(amp.IntelI912900KF(), a)
		if err != nil {
			t.Fatalf("row-cost Prepare failed (opts %+v): %v", roOpts, err)
		}
		idOpts := roOpts
		idOpts.DisableReorder = true
		idOpts.PProportion = rp.(*Prepared).Plan().PProportion
		ip, err := New(idOpts).Prepare(amp.IntelI912900KF(), a)
		if err != nil {
			t.Fatalf("identity-oracle Prepare failed: %v", err)
		}
		ry := make([]float64, a.Rows)
		iy := make([]float64, a.Rows)
		rp.Compute(ry, x)
		ip.Compute(iy, x)
		for i := range ry {
			if math.Float64bits(ry[i]) != math.Float64bits(iy[i]) {
				t.Fatalf("reordered y[%d] = %x, identity oracle %x (matrix %dx%d nnz %d)",
					i, math.Float64bits(ry[i]), math.Float64bits(iy[i]), a.Rows, a.Cols, a.NNZ())
			}
		}
		oplan := Plan{PProportion: plan.PProportion}
		if err := rp.(*Prepared).Repartition(oplan); err != nil {
			t.Fatalf("row-cost Repartition(%+v): %v", oplan, err)
		}
		if err := ip.(*Prepared).Repartition(oplan); err != nil {
			t.Fatalf("identity-oracle Repartition(%+v): %v", oplan, err)
		}
		rp.Compute(ry, x)
		ip.Compute(iy, x)
		for i := range ry {
			if math.Float64bits(ry[i]) != math.Float64bits(iy[i]) {
				t.Fatalf("after repartition: reordered y[%d] = %x, identity oracle %x (plan %+v)",
					i, math.Float64bits(ry[i]), math.Float64bits(iy[i]), oplan)
			}
		}
	})
}

// FuzzComputeBatch checks the serving-layer contract at its root: for
// any matrix and any batch width, the fused ComputeBatch must produce
// exactly — bit for bit — what nv independent Computes produce. Seed
// corpus under testdata/fuzz/FuzzComputeBatch mirrors the structural
// extremes with varying widths, including the forced-segsum one-row and
// mega-row shapes so the block-kernel fragment patch is covered too.
// nvByte picks the batch width (1 + nvByte%10) and, from its tens digit,
// the x inputs: bit 0 makes X[1] alias X[0]'s slice, bit 1 mixes ±0
// and subnormals into x, so the interleaved tiles must carry both
// through unchanged.
func FuzzComputeBatch(f *testing.F) {
	f.Add([]byte{7, 7, 0}, byte(8))                                                                                                                                                                            // empty rows, full block
	f.Add([]byte{0, 15, 0, 0, 0, 8, 0, 5, 16, 0, 11, 200}, byte(3))                                                                                                                                            // single row
	f.Add([]byte{31, 31, 0, 1, 1, 4, 9, 9, 8, 30, 2, 252}, byte(9))                                                                                                                                            // short rows, two blocks
	f.Add([]byte{2, 30, 0, 0, 0, 1, 0, 3, 2, 0, 6, 3, 0, 9, 4, 0, 12, 5, 0, 15, 6, 0, 18, 7, 0, 21, 8, 1, 1, 9, 1, 4, 10, 1, 7, 11, 1, 10, 12, 1, 13, 13, 1, 16, 14, 1, 19, 15, 1, 22, 16, 2, 2, 17}, byte(5)) // long rows
	f.Add([]byte{7, 200, 0, 0, 10, 40, 0, 20, 41, 1, 0, 42, 1, 252, 43, 2, 0, 44, 2, 251, 45}, byte(5))                                                                                                        // wide: rows around a >2^16-span row, block path
	f.Add([]byte{0, 15, 128, 0, 0, 8, 0, 5, 16, 0, 11, 200, 0, 3, 7, 0, 7, 9, 0, 13, 11, 0, 1, 5, 0, 9, 3}, byte(5))                                                                                           // forced segsum: all-one-row matrix, batched fragment patch
	f.Add(segsumMegaRowSeed(), byte(9))                                                                                                                                                                        // forced segsum: mega-row spanning 3+ regions, batched
	f.Add(diaDefectSeed(), byte(6))                                                                                                                                                                            // forced dia with defect row, block kernels
	f.Add(adjacencySeed(), byte(8))                                                                                                                                                                            // 0/1 adjacency: one value, a hub row across a region boundary, full block
	f.Add(shuffledBandSeed(), byte(7))                                                                                                                                                                         // scrambled band, base 4 sort, block kernels
	f.Add(append([]byte{7, 30, 224}, diaDefectSeed()[3:]...), byte(5))                                                                                                                                         // forced dia under forced segsum, batched
	f.Add(append([]byte{31, 31, 128}, adjacencySeed()[3:]...), byte(9))                                                                                                                                        // 0/1 adjacency under forced segsum, batched
	f.Add(append([]byte{31, 31, 3}, adjacencySeed()[3:]...), byte(8))                                                                                                                                          // 0/1 adjacency, natural order, one-level partition, full block
	f.Add(shuffledBandSeed(), byte(17))                                                                                                                                                                        // X[1] aliases X[0], full block
	f.Add([]byte{31, 31, 0, 1, 1, 4, 9, 9, 8, 30, 2, 252}, byte(12))                                                                                                                                           // X[1] aliases X[0], three-wide tile
	f.Add(shuffledBandSeed(), byte(27))                                                                                                                                                                        // ±0 and subnormal x, full block
	f.Add(diaDefectSeed(), byte(25))                                                                                                                                                                           // ±0 and subnormal x, dia fallback rows
	f.Add(segsumMegaRowSeed(), byte(38))                                                                                                                                                                       // aliased, ±0 and subnormal x, two tiles
	f.Fuzz(func(t *testing.T, data []byte, nvByte byte) {
		if len(data) > 1<<12 {
			return
		}
		a, optByte := fuzzMatrix(data)
		if a == nil {
			return
		}
		nv := 1 + int(nvByte)%10
		alias, tiny := nvByte/10&1 != 0, nvByte/10&2 != 0
		opts := fuzzOptions(optByte)
		prep, err := New(opts).Prepare(amp.IntelI912900KF(), a)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		bp, ok := prep.(exec.BatchPrepared)
		if !ok {
			t.Fatal("core.Prepared lost its ComputeBatch implementation")
		}
		X := make([][]float64, nv)
		Y := make([][]float64, nv)
		want := make([][]float64, nv)
		for v := 0; v < nv; v++ {
			X[v] = make([]float64, a.Cols)
			for i := range X[v] {
				X[v][i] = float64((i+2*v)%7) - 3 + float64(v)/8
				if tiny {
					X[v][i] = [...]float64{0, math.Copysign(0, -1), 5e-324, -3e-310, X[v][i]}[(i+v)%5]
				}
			}
			if alias && v == 1 {
				X[1] = X[0]
			}
			Y[v] = make([]float64, a.Rows)
			want[v] = make([]float64, a.Rows)
			prep.Compute(want[v], X[v])
		}
		bp.ComputeBatch(Y, X)
		for v := 0; v < nv; v++ {
			for i := range Y[v] {
				if math.Float64bits(Y[v][i]) != math.Float64bits(want[v][i]) {
					t.Fatalf("batch nv=%d: Y[%d][%d] = %x, solo Compute gives %x (matrix %dx%d nnz %d)",
						nv, v, i, math.Float64bits(Y[v][i]), math.Float64bits(want[v][i]), a.Rows, a.Cols, a.NNZ())
				}
			}
		}

		// The compressed block kernels must also match the []int
		// reference block kernels bit for bit on the same partition.
		refPrep := referencePrepared(t, prep.(*Prepared), a, opts)
		refY := make([][]float64, nv)
		for v := range refY {
			refY[v] = make([]float64, a.Rows)
		}
		refPrep.ComputeBatch(refY, X)
		for v := 0; v < nv; v++ {
			for i := range Y[v] {
				if math.Float64bits(Y[v][i]) != math.Float64bits(refY[v][i]) {
					t.Fatalf("batch nv=%d: compressed Y[%d][%d] = %x, []int reference %x (matrix %dx%d nnz %d, opts %+v)",
						nv, v, i, math.Float64bits(Y[v][i]), math.Float64bits(refY[v][i]), a.Rows, a.Cols, a.NNZ(), opts)
				}
			}
		}
	})
}
