package telemetry

import "fmt"

// Phase identifies one stage of the analyze→partition→execute pipeline.
// The Prepare phases decompose the paper's preprocessing overhead
// (Figure 10 / the Fig. 7-style breakdown served by haspmv-bench -exp
// phases); the execute phases time the repeated multiplications.
type Phase int

const (
	// PhaseReorder is the HACSR conversion (Algorithm 2).
	PhaseReorder Phase = iota
	// PhaseStreams is the compressed column-index stream build (u32 and
	// diagonal execution streams derived from the reordered matrix).
	PhaseStreams
	// PhaseCacheLineCost is the per-row cost computation and prefix sum
	// (Algorithm 3), for whichever CostMetric is selected.
	PhaseCacheLineCost
	// PhasePartitionL1 is the level-1 split: deriving the cost-space
	// boundaries between the P- and E-groups (Algorithm 4, lines 1-6).
	PhasePartitionL1
	// PhasePartitionL2 is the level-2 split: locating each core's exact
	// nonzero cut, including in-row walks (Algorithm 4, lines 7-13).
	PhasePartitionL2
	// PhasePrepare is the whole Prepare call (covers the phases above
	// plus validation and bookkeeping).
	PhasePrepare
	// PhaseCompute is one whole Compute call (parallel kernels plus the
	// serial extraY epilogue).
	PhaseCompute
	// PhaseBatch is one whole ComputeBatch call.
	PhaseBatch
	// PhaseRepartition is one boundary-only Repartition call (it reuses
	// the HACSR and cost prefix sums, so it is orders of magnitude
	// cheaper than PhasePrepare).
	PhaseRepartition

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseReorder:       "reorder",
	PhaseStreams:       "streams",
	PhaseCacheLineCost: "cost",
	PhasePartitionL1:   "partition_l1",
	PhasePartitionL2:   "partition_l2",
	PhasePrepare:       "prepare",
	PhaseCompute:       "compute",
	PhaseBatch:         "batch",
	PhaseRepartition:   "repartition",
}

func (p Phase) String() string {
	if p >= 0 && p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Phases lists every phase in pipeline order (reports iterate it so rows
// come out reorder → cost → partition → execute rather than map-ordered).
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// PrepareBreakdown returns the preprocessing phases only — the components
// of PhasePrepare that the Fig. 7-style overhead reports decompose.
func PrepareBreakdown() []Phase {
	return []Phase{PhaseReorder, PhaseStreams, PhaseCacheLineCost, PhasePartitionL1, PhasePartitionL2}
}
