// Command mminfo inspects Matrix Market files and runs quick SpMV
// comparisons on them, so real SuiteSparse downloads can be dropped into
// the reproduction:
//
//	mminfo matrix.mtx                      # structural statistics
//	mminfo -spmv -machine 7950X3D m.mtx    # modeled method comparison
//	mminfo -convert out.mtx in.mtx         # normalize to general/real form
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"haspmv/internal/amp"
	"haspmv/internal/bench"
	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/mmio"
	"haspmv/internal/sparse"

	haspmvcore "haspmv/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mminfo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mminfo", flag.ContinueOnError)
	spmv := fs.Bool("spmv", false, "run the modeled method comparison on the matrix")
	machine := fs.String("machine", "i9-12900KF", "AMP model for -spmv")
	convert := fs.String("convert", "", "write the matrix to this path in general/real coordinate form")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mminfo [flags] file.mtx")
	}
	path := fs.Arg(0)
	a, err := mmio.ReadFile(path)
	if err != nil {
		return err
	}

	s := sparse.ComputeRowStats(a)
	fmt.Printf("%s: %s\n", path, s)
	fmt.Printf("bandwidth=%d density=%.3g sorted-rows=%v\n",
		sparse.Bandwidth(a), sparse.Density(a), a.RowsSorted())
	// The absolute column-index width the matrix needs (Prepare's
	// compressed stream is u32 whenever it is at most 32).
	fmt.Printf("index-width=u%d\n", sparse.IndexWidthBits(a.Cols))
	// Diagonal structure and value-stream compressibility — what the
	// diagonal offset format and the palette value stream would get out
	// of this matrix.
	ds := sparse.ComputeDiagStats(a, 8)
	fmt.Printf("diagonals=%d top%d-diag-nnz=%.1f%% runs=%d mean-run-len=%.2f max-run-len=%d run-hist[%s]\n",
		ds.Diagonals, ds.TopD, 100*ds.TopShare, ds.Runs, ds.MeanRunLen, ds.MaxRunLen, ds.HistString())
	vs := sparse.ComputeValueStats(a)
	distinct := fmt.Sprintf("%d", vs.Distinct)
	if vs.Capped {
		distinct = fmt.Sprintf(">%d", vs.Distinct-1)
	}
	fmt.Printf("distinct-values=%s palette-eligible=%v\n", distinct, vs.PaletteEligible())
	// Row-length skew — the same numbers the execution-mode dispatch
	// reads, so segmented-sum eligibility is predictable from this line:
	// hub share (max-row-nnz over nnz), Gini, and how many rows an
	// equal-nnz split across the machine's cores would cut mid-row.
	m, ok := amp.ByName(*machine)
	if !ok {
		return fmt.Errorf("unknown machine %q", *machine)
	}
	cores := len(m.Cores(amp.PAndE))
	skew := costmodel.ComputeRowSkew(a.RowPtr)
	fmt.Printf("max-row-nnz=%d mean-row-nnz=%.2f hub-share=%.1f%% gini=%.3f spanning-rows@%dcores=%d exec=%s\n",
		skew.MaxRowNNZ, skew.MeanRowNNZ, 100*skew.MaxShare, skew.Gini,
		cores, costmodel.RowsSpanningCores(a.RowPtr, cores),
		map[bool]string{true: "segsum", false: "serial"}[skew.PreferSegSum(cores)])

	if *convert != "" {
		if err := mmio.WriteFile(*convert, a); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *convert)
	}

	if *spmv {
		fmt.Printf("\n# modeled SpMV on %s\n", m.Name)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "method\ttime(ms)\tGFlops\tbound")
		algs := bench.AlgorithmsFor(m)
		base := 0.0
		for i, alg := range algs {
			prep, err := alg.Prepare(m, a)
			if err != nil {
				return err
			}
			r := exec.Simulate(m, costmodel.DefaultParams(), a, prep)
			if i == 0 {
				base = r.Seconds
			}
			fmt.Fprintf(tw, "%s\t%.4f\t%.2f\t%s\n", alg.Name(), 1e3*r.Seconds, r.GFlops, r.BoundBy)
			_ = base
		}
		tw.Flush()
		fmt.Printf("auto P-proportion: %.3f, auto base: %d\n",
			haspmvcore.ProportionFor(m, a), haspmvcore.AutoBase(a))
	}
	return nil
}
