package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"

	haspmvcore "haspmv/internal/core"
)

// FormatRow is the host wall-clock of one execution-format configuration
// on one matrix, all configurations executing the identical partition.
type FormatRow struct {
	Matrix string
	Config string
	TimeUs float64
	GFlops float64
	// Speedup is the []int/f64 reference time over this config's time,
	// per matrix.
	Speedup float64
	// IdxBytesPerNNZ / ValBytesPerNNZ are the average index and value
	// bytes one multiply streams per nonzero under this configuration.
	IdxBytesPerNNZ float64
	ValBytesPerNNZ float64
	// DiaNNZShare is the fraction of nonzeros executed from diagonal run
	// descriptors, and ValueFormat the value stream the instance chose
	// ("f64" or "palette") — reported because "palette" only names
	// the *request*; whether compression engaged depends on the matrix.
	DiaNNZShare float64
	ValueFormat string
}

// formatConfigs is the int/u32/auto/dia/palette ablation: the []int+f64
// reference, absolute u32 indices, full auto (per-region index format
// plus automatic palette), forced diagonal descriptors, and u32 indices
// with the value stream left on auto so palette eligibility is isolated
// from index-format effects.
func formatConfigs() []struct {
	Name string
	Opts haspmvcore.Options
} {
	return []struct {
		Name string
		Opts haspmvcore.Options
	}{
		{"int", haspmvcore.Options{Index: haspmvcore.IndexReference, Value: haspmvcore.ValueReference}},
		{"u32", haspmvcore.Options{Index: haspmvcore.IndexU32, Value: haspmvcore.ValueReference}},
		{"auto", haspmvcore.Options{}},
		{"dia", haspmvcore.Options{Index: haspmvcore.IndexForceDia, Value: haspmvcore.ValueReference}},
		{"palette", haspmvcore.Options{Index: haspmvcore.IndexU32, Value: haspmvcore.ValueAuto}},
	}
}

// FormatMatrices builds the three-matrix battery the format sweep runs
// on: a 9-point stencil with a trace of off-band defects (diagonal
// descriptors apply, continuous values keep the palette out), a 0/1
// random graph (single-entry palette applies, scattered columns keep
// the diagonal format out), and the named representative matrix
// (whatever auto picks there). Sizes follow cfg.RepScale like the
// representative battery.
func FormatMatrices(cfg Config, matrix string) (names []string, mats []*sparse.CSR) {
	scale := cfg.RepScale
	if scale < 1 {
		scale = 1
	}
	dim := func(base int) int {
		n := base / scale
		if n < 2048 {
			n = 2048
		}
		return n
	}
	n := dim(1_500_000)
	sten := gen.StencilSpec{
		Name: "stencil9", Rows: n, Cols: n,
		Diagonals: 9, NoiseFrac: 0.002, Seed: 20260801,
	}.Generate()
	g := dim(400_000)
	graph := gen.Spec{
		Name: "graph01", Rows: g, Cols: g,
		Dist:  gen.NormalLen{Mean: 16, Std: 4, Min: 1, Max: 32},
		Place: gen.Random, Seed: 20260802,
	}.Generate()
	for k := range graph.Val {
		graph.Val[k] = 1 // adjacency: every stored value exactly 1.0
	}
	return []string{"stencil9", "graph01", matrix},
		[]*sparse.CSR{sten, graph, gen.Representative(matrix, cfg.RepScale)}
}

// FormatSweep measures real host wall-clock of the pluggable per-region
// execution formats across the FormatMatrices battery. The P-proportion
// and row-length base are pinned per matrix so every configuration
// executes the exact same partition — the sweep isolates stream bytes
// per nonzero, which is the point: SpMV is stream bound, and the
// diagonal descriptors and palette values shrink the two dominant
// traffic terms. The same host caveat as HostCompare applies: symmetric
// host cores show the traffic effect, not AMP behaviour.
func FormatSweep(cfg Config, m *amp.Machine, matrix string, reps int) ([]FormatRow, error) {
	if reps < 1 {
		reps = 5
	}
	names, mats := FormatMatrices(cfg, matrix)
	var rows []FormatRow
	for mi, a := range mats {
		prop := haspmvcore.ProportionFor(m, a)
		base := haspmvcore.AutoBase(a)
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = 1 + float64(i%7)/7
		}
		y := make([]float64, a.Rows)
		flops := 2 * float64(a.NNZ())
		refSec := 0.0
		for _, cf := range formatConfigs() {
			opts := cf.Opts
			opts.PProportion = prop
			opts.Base = base
			prep, err := haspmvcore.New(opts).Prepare(m, a)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", names[mi], cf.Name, err)
			}
			prep.Compute(y, x) // warm up (scratch pools, worker pool)
			best := time.Duration(1 << 62)
			for r := 0; r < reps; r++ {
				start := time.Now()
				prep.Compute(y, x)
				if d := time.Since(start); d < best {
					best = d
				}
			}
			hp := prep.(*haspmvcore.Prepared)
			ist := hp.IndexStats()
			vst := hp.ValueStats()
			row := FormatRow{
				Matrix: names[mi], Config: cf.Name,
				TimeUs:      float64(best.Nanoseconds()) / 1e3,
				ValueFormat: vst.Format.String(),
			}
			if nnz := a.NNZ(); nnz > 0 {
				row.IdxBytesPerNNZ = float64(ist.StreamIndexBytes) / float64(nnz)
				row.ValBytesPerNNZ = float64(vst.StreamValueBytes) / float64(nnz)
				row.DiaNNZShare = float64(ist.NNZByFormat[haspmvcore.IndexDia]) / float64(nnz)
			}
			if s := best.Seconds(); s > 0 {
				row.GFlops = flops / s / 1e9
				if cf.Name == "int" {
					refSec = s
				}
				row.Speedup = refSec / s
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintFormat renders the execution-format sweep.
func PrintFormat(w io.Writer, m *amp.Machine, rows []FormatRow) {
	fmt.Fprintf(w, "\n# Execution-format SpMV sweep (machine model %s used for partitioning only)\n", m.Name)
	fmt.Fprintln(w, "note: host cores are symmetric; these numbers show stream-traffic reduction, not AMP behaviour")
	tw := newTable(w)
	fmt.Fprintln(tw, "matrix\tconfig\ttime(us)\tGFlops\tspeedup vs int\tidx B/nnz\tval B/nnz\tdia nnz share\tvalue stream")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.2f\t%.2fx\t%.2f\t%.2f\t%.1f%%\t%s\n",
			r.Matrix, r.Config, r.TimeUs, r.GFlops, r.Speedup,
			r.IdxBytesPerNNZ, r.ValBytesPerNNZ, 100*r.DiaNNZShare, r.ValueFormat)
	}
	tw.Flush()
}

// FormatCSV emits machine,matrix,config,time_us,gflops,speedup,
// idx_bytes_per_nnz,val_bytes_per_nnz,dia_nnz_share,value_format rows.
func FormatCSV(w io.Writer, machine string, rowsIn []FormatRow) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"machine", "matrix", "config", "time_us", "gflops", "speedup",
		"idx_bytes_per_nnz", "val_bytes_per_nnz", "dia_nnz_share", "value_format"}}
	for _, r := range rowsIn {
		rows = append(rows, []string{
			machine, r.Matrix, r.Config, f(r.TimeUs), f(r.GFlops), f(r.Speedup),
			f(r.IdxBytesPerNNZ), f(r.ValBytesPerNNZ), f(r.DiaNNZShare), r.ValueFormat,
		})
	}
	return writeAll(cw, rows)
}
