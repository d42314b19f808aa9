package sparse

import (
	"fmt"
	"sort"
)

// Diagonal-structure statistics feeding the pluggable per-region
// execution formats: the core Prepare pipeline replaces per-nonzero
// column indices with one column offset on rows that are a single run
// of consecutive columns. These helpers let tools report what a matrix
// will get before any Prepare runs.

// DiagStats summarizes how diagonal a matrix's structure is.
type DiagStats struct {
	// Diagonals counts distinct occupied diagonals (col-row offsets).
	Diagonals int
	// TopD is the d the TopShare was computed for.
	TopD int
	// TopShare is the fraction of nonzeros on the TopD densest diagonals
	// (1.0 for an empty matrix's vacuous cover).
	TopShare float64
	// Runs counts maximal constant-offset runs (stretches of consecutive
	// columns within one row); a row that is one run of 8 or more
	// executes from a single column offset instead of per-nonzero
	// indices.
	Runs int
	// MaxRunLen is the longest run; MeanRunLen is nnz/Runs.
	MaxRunLen  int
	MeanRunLen float64
	// RunLenHist buckets run lengths as 1, 2-3, 4-7, 8-15, and >=16.
	RunLenHist [5]int
}

// HistString renders the run-length histogram compactly.
func (s DiagStats) HistString() string {
	return fmt.Sprintf("1:%d 2-3:%d 4-7:%d 8-15:%d 16+:%d",
		s.RunLenHist[0], s.RunLenHist[1], s.RunLenHist[2], s.RunLenHist[3], s.RunLenHist[4])
}

// ComputeDiagStats scans the matrix once and returns its diagonal
// profile; topD selects how many of the densest diagonals the coverage
// share is computed over (<=0 selects 8).
func ComputeDiagStats(a *CSR, topD int) DiagStats {
	if topD <= 0 {
		topD = 8
	}
	s := DiagStats{TopD: topD, TopShare: 1}
	byOffset := make(map[int]int)
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		runLen := 0
		for k := lo; k < hi; k++ {
			byOffset[a.ColIdx[k]-i]++
			if k > lo && a.ColIdx[k] == a.ColIdx[k-1]+1 {
				runLen++
				continue
			}
			if runLen > 0 {
				s.addRun(runLen)
			}
			runLen = 1
		}
		if runLen > 0 {
			s.addRun(runLen)
		}
	}
	s.Diagonals = len(byOffset)
	if nnz := a.NNZ(); nnz > 0 {
		counts := make([]int, 0, len(byOffset))
		for _, c := range byOffset {
			counts = append(counts, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		covered := 0
		for i := 0; i < topD && i < len(counts); i++ {
			covered += counts[i]
		}
		s.TopShare = float64(covered) / float64(nnz)
		s.MeanRunLen = float64(nnz) / float64(s.Runs)
	}
	return s
}

func (s *DiagStats) addRun(l int) {
	s.Runs++
	if l > s.MaxRunLen {
		s.MaxRunLen = l
	}
	switch {
	case l == 1:
		s.RunLenHist[0]++
	case l <= 3:
		s.RunLenHist[1]++
	case l <= 7:
		s.RunLenHist[2]++
	case l <= 15:
		s.RunLenHist[3]++
	default:
		s.RunLenHist[4]++
	}
}
