// Command corpusgen materializes the synthetic matrix corpus (the
// SuiteSparse stand-in) or the 22 representative Table II matrices as
// Matrix Market files, so they can be inspected, diffed against real
// downloads, or fed to other tools.
//
//	corpusgen -dir /tmp/corpus -n 50 -maxnnz 1000000
//	corpusgen -dir /tmp/rep -representative -scale 16
//	corpusgen -dir /tmp/zipf -zipf -rows 65536 -cols 65536 -nnz 600000
//	corpusgen -dir /tmp/sten -stencil -rows 65536 -cols 65536 -diags 9 -noise 0.01 -palette 4
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"haspmv/internal/gen"
	"haspmv/internal/mmio"
	"haspmv/internal/sparse"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("corpusgen", flag.ContinueOnError)
	dir := fs.String("dir", "", "output directory (required)")
	n := fs.Int("n", 30, "corpus size")
	minNNZ := fs.Int("minnnz", 2000, "smallest matrix nnz")
	maxNNZ := fs.Int("maxnnz", 500000, "largest matrix nnz")
	seed := fs.Int64("seed", 20230904, "corpus seed")
	representative := fs.Bool("representative", false, "write the 22 Table II matrices instead of the corpus")
	scale := fs.Int("scale", 16, "representative scale divisor")
	zipf := fs.Bool("zipf", false, "write one rank-law (Zipf) power-law matrix instead of the corpus")
	rows := fs.Int("rows", 65536, "zipf matrix rows")
	cols := fs.Int("cols", 65536, "zipf matrix cols")
	nnz := fs.Int("nnz", 600000, "zipf matrix nonzeros (exact)")
	zipfS := fs.Float64("zipf-s", 0, "zipf rank exponent (0 = default 1.4)")
	stencil := fs.Bool("stencil", false, "write one banded/stencil matrix instead of the corpus")
	diags := fs.Int("diags", 5, "stencil diagonal count (offsets nearest 0)")
	fill := fs.Float64("fill", 1, "stencil band fill probability (0 or 1 = dense bands)")
	noise := fs.Float64("noise", 0, "fraction of rows receiving one off-band defect entry")
	palette := fs.Int("palette", 0, "restrict values to this many distinct floats (0 = continuous)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	write := func(name string, a *sparse.CSR) error {
		path := filepath.Join(*dir, name+".mtx")
		if err := mmio.WriteFile(path, a); err != nil {
			return err
		}
		s := sparse.ComputeRowStats(a)
		fmt.Printf("%-40s %s\n", path, s)
		return nil
	}

	if *stencil {
		sp := gen.StencilSpec{
			Name: fmt.Sprintf("stencil-%dx%d-d%d", *rows, *cols, *diags),
			Rows: *rows, Cols: *cols, Diagonals: *diags,
			BandFill: *fill, NoiseFrac: *noise, PaletteK: *palette, Seed: *seed,
		}
		return write(sp.Name, sp.Generate())
	}
	if *zipf {
		z := gen.ZipfSpec{
			Name: fmt.Sprintf("zipf-%dx%d-%d", *rows, *cols, *nnz),
			Rows: *rows, Cols: *cols, TargetNNZ: *nnz, S: *zipfS, Seed: *seed,
		}
		return write(z.Name, z.Generate())
	}
	if *representative {
		for _, name := range gen.RepresentativeNames() {
			if err := write(name, gen.Representative(name, *scale)); err != nil {
				return err
			}
		}
		return nil
	}
	specs := gen.Corpus(gen.CorpusOptions{Size: *n, MinNNZ: *minNNZ, MaxNNZ: *maxNNZ, Seed: *seed})
	for _, sp := range specs {
		if err := write(sp.Name, sp.Generate()); err != nil {
			return err
		}
	}
	return nil
}
