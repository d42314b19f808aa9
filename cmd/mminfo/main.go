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
	// The absolute column-index width the matrix needs (Prepare streams
	// u32 indices for every matrix it accepts).
	fmt.Printf("index-width=u%d\n", sparse.IndexWidthBits(a.Cols))
	// Row-length skew — hub share (max-row-nnz over nnz), Gini, and how
	// many rows an equal-nnz split across the machine's cores would cut
	// mid-row: the shapes the default segmented execution serves.
	m, ok := amp.ByName(*machine)
	if !ok {
		return fmt.Errorf("unknown machine %q", *machine)
	}
	cores := len(m.Cores(amp.PAndE))
	skew := costmodel.ComputeRowSkew(a.RowPtr)
	fmt.Printf("max-row-nnz=%d mean-row-nnz=%.2f hub-share=%.1f%% gini=%.3f spanning-rows@%dcores=%d\n",
		skew.MaxRowNNZ, skew.MeanRowNNZ, 100*skew.MaxShare, skew.Gini,
		cores, costmodel.RowsSpanningCores(a.RowPtr, cores))

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
		for _, alg := range algs {
			prep, err := alg.Prepare(m, a)
			if err != nil {
				return err
			}
			r := exec.Simulate(m, costmodel.DefaultParams(), a, prep)
			fmt.Fprintf(tw, "%s\t%.4f\t%.2f\t%s\n", alg.Name(), 1e3*r.Seconds, r.GFlops, r.BoundBy)
		}
		tw.Flush()
		fmt.Printf("auto P-proportion: %.3f, auto base: %d\n",
			haspmvcore.ProportionFor(m, a), haspmvcore.AutoBase(a))
	}
	return nil
}
