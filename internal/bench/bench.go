// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index).
// Each runner returns a typed result (so tests can assert shapes) and can
// render itself as a text report. cmd/haspmv-bench wires the runners to a
// CLI; the repository-root benchmarks call them under testing.B.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"haspmv/internal/amp"
	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"

	"haspmv/internal/baselines/csr5"
	"haspmv/internal/baselines/csrsimple"
	"haspmv/internal/baselines/mergespmv"
	"haspmv/internal/baselines/vendorlike"
	haspmvcore "haspmv/internal/core"
)

// Config scales the experiments. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// Machines to evaluate (defaults to the four Table I parts).
	Machines []*amp.Machine
	// Params are the performance-model constants.
	Params costmodel.Params
	// CorpusSize is the number of synthetic matrices standing in for the
	// 2888-matrix SuiteSparse sweep.
	CorpusSize int
	// CorpusMaxNNZ bounds the corpus scale.
	CorpusMinNNZ, CorpusMaxNNZ int
	// RepScale divides the published sizes of the 22 representative
	// matrices (16 keeps every experiment laptop-fast while preserving
	// per-row cache behaviour).
	RepScale int
	Seed     int64
}

// DefaultConfig returns the harness defaults used by cmd/haspmv-bench.
func DefaultConfig() Config {
	c := gen.DefaultCorpus()
	return Config{
		Machines:     amp.All(),
		Params:       costmodel.DefaultParams(),
		CorpusSize:   c.Size,
		CorpusMinNNZ: c.MinNNZ,
		CorpusMaxNNZ: c.MaxNNZ,
		RepScale:     16,
		Seed:         c.Seed,
	}
}

// TestConfig returns a shrunken configuration for unit tests.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.CorpusSize = 24
	cfg.CorpusMaxNNZ = 200_000
	cfg.RepScale = 64
	return cfg
}

func (c Config) corpus() []gen.Spec {
	return gen.Corpus(gen.CorpusOptions{
		Size: c.CorpusSize, MinNNZ: c.CorpusMinNNZ, MaxNNZ: c.CorpusMaxNNZ, Seed: c.Seed,
	})
}

// isAMD splits the configured machines by vendor flavour: the Intel
// parts compare against oneMKL, the AMD parts against AOCL.
func isAMD(m *amp.Machine) bool {
	return !m.PGroup().L3SharedWithOtherGroup
}

// AlgorithmsFor returns the paper's Figure 8 competitor set for a machine:
// HASpMV, the vendor library (oneMKL-like on Intel, AOCL-like on AMD),
// CSR5 and Merge-SpMV, all using every core. HASpMV runs the paper's
// pipeline: the reference index mode and the serial walk (Algorithm 5).
// The paper's algorithm has no compressed streams or segment
// descriptors, and the baselines are all priced at the paper's 4-byte
// CSR indices, so the figure reproductions compare like with like (the
// default u32 segmented path is measured separately by the root
// BenchmarkCompute int and auto rows and perfbench's
// kernel.bytes_per_nnz rows).
func AlgorithmsFor(m *amp.Machine) []exec.Algorithm {
	vendor := vendorlike.New(vendorlike.MKL, amp.PAndE)
	if isAMD(m) {
		vendor = vendorlike.New(vendorlike.AOCL, amp.PAndE)
	}
	return []exec.Algorithm{
		haspmvcore.New(haspmvcore.Options{Index: haspmvcore.IndexReference, Exec: haspmvcore.ExecSerial}),
		vendor,
		csr5.New(amp.PAndE),
		mergespmv.New(amp.PAndE),
	}
}

// simpleSpMV is the Section III micro-benchmark algorithm (Algorithm 1).
func simpleSpMV(cfg amp.Config) exec.Algorithm {
	return csrsimple.New(cfg, csrsimple.ByRows)
}

// simulate runs one algorithm on one matrix and returns the modeled
// result, or an error if preparation failed.
func simulate(m *amp.Machine, p costmodel.Params, alg exec.Algorithm, a *sparse.CSR) (costmodel.Result, error) {
	prep, err := alg.Prepare(m, a)
	if err != nil {
		return costmodel.Result{}, fmt.Errorf("%s on %s: %w", alg.Name(), m.Name, err)
	}
	return exec.Simulate(m, p, a, prep), nil
}

// singleCoreAlg runs the whole matrix serially on one chosen core — the
// Section III-C micro-benchmark ("a simple serial SpMV test").
type singleCoreAlg struct{ core int }

func (s singleCoreAlg) Name() string { return fmt.Sprintf("serial(core%d)", s.core) }

func (s singleCoreAlg) Prepare(m *amp.Machine, a *sparse.CSR) (exec.Prepared, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &singleCorePrep{mat: a, core: s.core}, nil
}

type singleCorePrep struct {
	mat  *sparse.CSR
	core int
}

func (p *singleCorePrep) Compute(y, x []float64) { p.mat.MulVec(y, x) }

func (p *singleCorePrep) Assignments() []costmodel.Assignment {
	return []costmodel.Assignment{{
		Core:  p.core,
		Spans: []costmodel.Span{{Lo: 0, Hi: p.mat.NNZ()}},
	}}
}

// newTable starts an aligned text table.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
