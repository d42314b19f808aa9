// Package haspmv is a Go reproduction of "HASpMV: Heterogeneity-Aware
// Sparse Matrix-Vector Multiplication on Modern Asymmetric Multicore
// Processors" (CLUSTER 2023).
//
// The package exposes a curated facade over the implementation packages:
//
//   - sparse matrices (CSR with COO and Matrix Market interchange),
//   - the four Table I machine models (i9-12900KF, i9-13900KF, Ryzen 9
//     7950X3D and 7950X) driving a deterministic performance simulator
//     that substitutes for the paper's hardware (see DESIGN.md),
//   - HASpMV itself (HACSR reorder, cache-line cost partitioning, the
//     conflict-resolving executor) plus the four baselines the paper
//     compares against (oneMKL-like, AOCL-like, CSR5, Merge-SpMV),
//   - synthetic matrix generators reproducing Table II's 22
//     representative matrices and a SuiteSparse-like corpus.
//
// Quick start:
//
//	m := haspmv.IntelI912900KF()
//	a := haspmv.Representative("rma10", 16)
//	h, err := haspmv.Analyze(m, a, haspmv.Options{})
//	if err != nil { ... }
//	y := make([]float64, a.Rows)
//	h.Multiply(y, x)                 // real goroutine-parallel SpMV
//	r := h.Simulate(nil)             // modeled time on the AMP
//	fmt.Println(r.GFlops)
package haspmv

import (
	"fmt"
	"io"
	"sync/atomic"

	"haspmv/internal/amp"
	"haspmv/internal/costmodel"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
	"haspmv/internal/mmio"
	"haspmv/internal/sparse"
	"haspmv/internal/telemetry"

	"haspmv/internal/baselines/csr5"
	"haspmv/internal/baselines/csrsimple"
	"haspmv/internal/baselines/mergespmv"
	"haspmv/internal/baselines/vendorlike"
	haspmvcore "haspmv/internal/core"
)

// Matrix is a CSR sparse matrix (see the methods on sparse.CSR: NNZ,
// MulVec, Validate, Transpose, ...).
type Matrix = sparse.CSR

// Triplets is a COO matrix under assembly; convert with ToCSR.
type Triplets = sparse.COO

// NewCSR builds a validated CSR matrix from raw arrays.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*Matrix, error) {
	return sparse.NewCSR(rows, cols, rowPtr, colIdx, val)
}

// FromDense converts a dense matrix, keeping entries with |v| > drop.
func FromDense(dense [][]float64, drop float64) *Matrix {
	return sparse.FromDense(dense, drop)
}

// ReadMatrixMarket parses a Matrix Market stream (coordinate or array;
// real, integer or pattern; general, symmetric or skew-symmetric).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return mmio.Read(r) }

// ReadMatrixMarketFile reads a .mtx file from disk.
func ReadMatrixMarketFile(path string) (*Matrix, error) { return mmio.ReadFile(path) }

// WriteMatrixMarket writes the matrix in coordinate/real/general form.
func WriteMatrixMarket(w io.Writer, a *Matrix) error { return mmio.Write(w, a) }

// Machine describes an asymmetric multicore processor for the simulator.
type Machine = amp.Machine

// CoreConfig selects which cores participate: PAndE (default), POnly
// (P-cores / CCD0) or EOnly (E-cores / CCD1).
type CoreConfig = amp.Config

// Core-composition constants (the three lines of Figures 3 and 4).
const (
	PAndE = amp.PAndE
	POnly = amp.POnly
	EOnly = amp.EOnly
)

// The four Table I machines.
func IntelI912900KF() *Machine   { return amp.IntelI912900KF() }
func IntelI913900KF() *Machine   { return amp.IntelI913900KF() }
func AMDRyzen97950X3D() *Machine { return amp.AMDRyzen97950X3D() }
func AMDRyzen97950X() *Machine   { return amp.AMDRyzen97950X() }

// Machines lists the four Table I presets.
func Machines() []*Machine { return amp.All() }

// Extension presets beyond Table I: the other single-ISA AMP families the
// paper cites. AppleM2Like models an M2-class chip (128-byte cache lines,
// unified memory); ARMBigLittleLike models a big.LITTLE mobile SoC.
func AppleM2Like() *Machine      { return amp.AppleM2Like() }
func ARMBigLittleLike() *Machine { return amp.ARMBigLittleLike() }

// MachineByName resolves a Table I name ("i9-12900KF", "7950X3D", ...).
func MachineByName(name string) (*Machine, bool) { return amp.ByName(name) }

// Options configure HASpMV (see core.Options); the zero value selects the
// paper's defaults.
type Options = haspmvcore.Options

// CostMetric selects the partitioning workload measure.
type CostMetric = haspmvcore.CostMetric

// Partitioning metrics (Figure 9 compares all three).
const (
	CacheLineCost = haspmvcore.CacheLineCost
	NNZCost       = haspmvcore.NNZCost
	RowCost       = haspmvcore.RowCost
)

// ExecMode selects how rows cut across cores are resolved (see
// core.ExecMode).
type ExecMode = haspmvcore.ExecMode

// Execution modes: auto dispatch on row-length skew, the classic serial
// extraY epilogue, or forced speculative segmented-sum execution with
// the parallel cut-row patch.
const (
	ExecAuto   = haspmvcore.ExecAuto
	ExecSerial = haspmvcore.ExecSerial
	ExecSegSum = haspmvcore.ExecSegSum
)

// IndexMode selects the column-index stream policy (see core.IndexMode).
type IndexMode = haspmvcore.IndexMode

// Index-stream policies: auto per-region selection over the compressed
// streams, the []int reference oracle, u32 only, or forced DIA-style
// diagonal execution.
const (
	IndexAuto      = haspmvcore.IndexAuto
	IndexReference = haspmvcore.IndexReference
	IndexU32       = haspmvcore.IndexU32
	IndexForceDia  = haspmvcore.IndexForceDia
)

// ModelParams are the performance-model calibration constants.
type ModelParams = costmodel.Params

// DefaultModelParams returns the calibrated model defaults.
func DefaultModelParams() ModelParams { return costmodel.DefaultParams() }

// ModelResult is a simulator estimate (Seconds, GFlops, per-core costs).
type ModelResult = costmodel.Result

// Handle is an analyzed matrix ready for repeated multiplication — the
// inspector-executor pattern shared by HASpMV and all baselines.
type Handle struct {
	machine *Machine
	matrix  *Matrix
	prep    exec.Prepared
	name    string

	multiplies      atomic.Int64
	batchMultiplies atomic.Int64
	batchVectors    atomic.Int64
}

// Analyze prepares HASpMV for the matrix on the machine.
func Analyze(m *Machine, a *Matrix, opts Options) (*Handle, error) {
	return analyzeWith(haspmvcore.New(opts), m, a)
}

// AnalyzeBaseline prepares one of the comparison algorithms; name is one
// of "csr" (Algorithm 1 row split), "csr-nnz", "mkl", "aocl", "csr5",
// "merge".
func AnalyzeBaseline(name string, cfg CoreConfig, m *Machine, a *Matrix) (*Handle, error) {
	alg, err := BaselineByName(name, cfg)
	if err != nil {
		return nil, err
	}
	return analyzeWith(alg, m, a)
}

// BaselineByName resolves a baseline algorithm by its short name.
func BaselineByName(name string, cfg CoreConfig) (exec.Algorithm, error) {
	switch name {
	case "csr":
		return csrsimple.New(cfg, csrsimple.ByRows), nil
	case "csr-nnz":
		return csrsimple.New(cfg, csrsimple.ByNNZ), nil
	case "mkl":
		return vendorlike.New(vendorlike.MKL, cfg), nil
	case "aocl":
		return vendorlike.New(vendorlike.AOCL, cfg), nil
	case "csr5":
		return csr5.New(cfg), nil
	case "merge":
		return mergespmv.New(cfg), nil
	default:
		return nil, &UnknownAlgorithmError{Name: name}
	}
}

// UnknownAlgorithmError is returned for unrecognized baseline names.
type UnknownAlgorithmError struct{ Name string }

func (e *UnknownAlgorithmError) Error() string {
	return "haspmv: unknown algorithm " + e.Name + ` (want "csr", "csr-nnz", "mkl", "aocl", "csr5" or "merge")`
}

func analyzeWith(alg exec.Algorithm, m *Machine, a *Matrix) (*Handle, error) {
	prep, err := alg.Prepare(m, a)
	if err != nil {
		return nil, err
	}
	return &Handle{machine: m, matrix: a, prep: prep, name: alg.Name()}, nil
}

// Name identifies the prepared algorithm.
func (h *Handle) Name() string { return h.name }

// Rows and Cols return the analyzed matrix's dimensions.
func (h *Handle) Rows() int { return h.matrix.Rows }

// Cols returns the analyzed matrix's column count.
func (h *Handle) Cols() int { return h.matrix.Cols }

// Matrix returns the analyzed matrix (callers must not mutate it).
func (h *Handle) Matrix() *Matrix { return h.matrix }

// MultiplyBatch computes Y[v] = A*X[v] for a block of vectors, using the
// fused multi-vector path when the algorithm provides one. HASpMV walks
// each region's value and index streams once per block of 4 to 8
// vectors, gathering x from a column-interleaved copy of the block (one
// cache line per nonzero for all of its vectors; a smaller remainder
// gathers each vector's own x), and pools its workspace on the handle so the steady-state path is allocation-free
// for any batch size. Every X[v] must have length Cols()
// and every Y[v] length Rows(); mismatches panic with a descriptive
// message rather than corrupting results inside a kernel goroutine.
func (h *Handle) MultiplyBatch(Y, X [][]float64) {
	if len(Y) != len(X) {
		panic(fmt.Sprintf("haspmv: MultiplyBatch got %d output vectors for %d right-hand sides", len(Y), len(X)))
	}
	for v := range X {
		if len(X[v]) != h.matrix.Cols {
			panic(fmt.Sprintf("haspmv: MultiplyBatch x[%d] has length %d, want Cols() = %d", v, len(X[v]), h.matrix.Cols))
		}
		if len(Y[v]) != h.matrix.Rows {
			panic(fmt.Sprintf("haspmv: MultiplyBatch y[%d] has length %d, want Rows() = %d", v, len(Y[v]), h.matrix.Rows))
		}
	}
	h.batchMultiplies.Add(1)
	h.batchVectors.Add(int64(len(X)))
	exec.ComputeBatch(h.prep, Y, X)
}

// Multiply computes y = A*x on the simulated cores. x must have length
// Cols() and y length Rows(); mismatches panic with a descriptive message
// (a short y would otherwise corrupt results or crash deep inside a
// kernel goroutine). Note that Go cannot pin goroutines to P/E cores, so
// host wall-clock does not reflect AMP asymmetry; use Simulate for
// modeled AMP timing.
func (h *Handle) Multiply(y, x []float64) {
	if len(y) != h.matrix.Rows {
		panic(fmt.Sprintf("haspmv: Multiply y has length %d, want Rows() = %d", len(y), h.matrix.Rows))
	}
	if len(x) != h.matrix.Cols {
		panic(fmt.Sprintf("haspmv: Multiply x has length %d, want Cols() = %d", len(x), h.matrix.Cols))
	}
	h.multiplies.Add(1)
	h.prep.Compute(y, x)
}

// Simulate prices the prepared SpMV on the machine model. Passing nil
// params uses the calibrated defaults.
func (h *Handle) Simulate(p *ModelParams) ModelResult {
	params := costmodel.DefaultParams()
	if p != nil {
		params = *p
	}
	return exec.Simulate(h.machine, params, h.matrix, h.prep)
}

// GenSpec describes a synthetic matrix (see gen.Spec).
type GenSpec = gen.Spec

// Representative generates one of Table II's 22 matrices at the given
// scale divisor (1 = published size; 16 = laptop-fast default).
func Representative(name string, scale int) *Matrix {
	return gen.Representative(name, scale)
}

// RepresentativeNames lists Table II's matrices in paper order.
func RepresentativeNames() []string { return gen.RepresentativeNames() }

// DefaultProportion exposes the machine-derived level-1 split share.
func DefaultProportion(m *Machine) float64 { return haspmvcore.DefaultProportion(m) }

// ProportionFor exposes the matrix-aware level-1 split share used by
// Analyze when Options.PProportion is unset.
func ProportionFor(m *Machine, a *Matrix) float64 { return haspmvcore.ProportionFor(m, a) }

// Energy is the modeled package energy of one SpMV (core + uncore), an
// extension beyond the paper's evaluation.
type Energy = costmodel.Energy

// SimulateEnergy prices the handle's SpMV and derives its energy.
func (h *Handle) SimulateEnergy(p *ModelParams) (ModelResult, Energy) {
	r := h.Simulate(p)
	return r, costmodel.EstimateEnergy(h.machine, r)
}

// ---------------------------------------------------------------- telemetry

// TelemetryStats is a point-in-time snapshot of the telemetry registry
// and (when enabled) the active collector: counters, gauges, phase
// timers, per-core execution totals, span counts and partition records.
type TelemetryStats = telemetry.Stats

// TelemetryServer serves /metrics (Prometheus text format), /debug/vars
// (expvar) and /debug/pprof on its own mux.
type TelemetryServer = telemetry.Server

// EnableTelemetry turns on instrumentation collection across the whole
// pipeline (phase timers, per-core spans, partition records). The hot
// path is designed so that with telemetry disabled — the default —
// Multiply performs zero additional allocations and only nil-check
// overhead.
func EnableTelemetry() { telemetry.Enable() }

// DisableTelemetry turns collection back off. Registry counters keep
// their values.
func DisableTelemetry() { telemetry.Disable() }

// TelemetryEnabled reports whether collection is currently on.
func TelemetryEnabled() bool { return telemetry.Enabled() }

// TelemetrySnapshot returns the global telemetry view (the same object
// expvar publishes under the "haspmv" key once telemetry is enabled).
func TelemetrySnapshot() TelemetryStats { return telemetry.Snapshot() }

// ServeTelemetry starts an HTTP server exposing /metrics, /debug/vars and
// /debug/pprof on addr (":0" picks an ephemeral port; query Addr()).
func ServeTelemetry(addr string) (*TelemetryServer, error) { return telemetry.Serve(addr) }

// WriteTelemetryTrace exports the active collector as Chrome trace_event
// JSON — one span per simulated core per multiply plus the partition
// decisions — openable in chrome://tracing or https://ui.perfetto.dev.
// It errors when telemetry is disabled.
func WriteTelemetryTrace(w io.Writer) error { return telemetry.WriteTrace(w) }

// WriteTelemetryMetrics renders the registry and active collector in the
// Prometheus text exposition format (the body of /metrics).
func WriteTelemetryMetrics(w io.Writer) error { return telemetry.WritePrometheus(w) }

// HandleStats summarize one handle's shape and usage.
type HandleStats struct {
	// Algorithm is the prepared method's report name.
	Algorithm string
	// Rows, Cols and NNZ describe the analyzed matrix.
	Rows, Cols, NNZ int
	// Cores is the number of per-core work assignments the partition
	// produced.
	Cores int
	// Multiplies counts Multiply calls on this handle.
	Multiplies int64
	// BatchMultiplies and BatchVectors count MultiplyBatch calls and the
	// total right-hand sides they carried.
	BatchMultiplies, BatchVectors int64
}

// Stats returns this handle's usage counters and partition summary. For
// the pipeline-wide view (phase timers, per-core spans, traces) see
// TelemetrySnapshot.
func (h *Handle) Stats() HandleStats {
	return HandleStats{
		Algorithm:       h.name,
		Rows:            h.matrix.Rows,
		Cols:            h.matrix.Cols,
		NNZ:             h.matrix.NNZ(),
		Cores:           len(h.prep.Assignments()),
		Multiplies:      h.multiplies.Load(),
		BatchMultiplies: h.batchMultiplies.Load(),
		BatchVectors:    h.batchVectors.Load(),
	}
}

// ----------------------------------------------------------- repartitioning

// RepartitionPlan is a partition target for Repartition: the level-1
// P-group cost share plus optional per-core level-2 weights.
type RepartitionPlan = haspmvcore.Plan

// ErrNotAdaptive is returned when repartitioning is requested on a
// baseline handle (only HASpMV keeps the cost prefix sums needed for
// boundary-only moves).
type ErrNotAdaptive struct{ Algorithm string }

func (e *ErrNotAdaptive) Error() string {
	return "haspmv: " + e.Algorithm + " does not support repartitioning (HASpMV only)"
}

// Repartition moves the handle's partition boundaries to the plan without
// re-analyzing the matrix — O(cores·log nnz) binary searches against the
// cached cost prefix sums, safe under concurrent Multiply calls.
func (h *Handle) Repartition(plan RepartitionPlan) error {
	hp, ok := h.prep.(*haspmvcore.Prepared)
	if !ok {
		return &ErrNotAdaptive{Algorithm: h.name}
	}
	return hp.Repartition(plan)
}

// TuneProportion golden-section-searches the level-1 split share that
// minimizes the modeled time for this matrix on this machine, refining
// the ProportionFor heuristic the way Section III's micro-benchmarks
// calibrate the real implementation. tol <= 0 selects 0.01.
func TuneProportion(m *Machine, a *Matrix, opts Options, tol float64) (proportion, seconds float64, err error) {
	return haspmvcore.TuneProportion(m, costmodel.DefaultParams(), a, opts, tol)
}
