package costmodel

import "sort"

// Row-length skew, as cmd/mminfo reports it. HASpMV's serial extraY
// epilogue is a tail whose length grows with the number of rows cut
// across cores, and the per-row fragment walk pays a fixed overhead that
// dominates when the typical row holds only a few nonzeros — both are
// properties of the row-length *distribution*, not of the nnz total the
// partitioner balances, and both are what the default segmented-sum
// execution removes. RowSkew captures that distribution in the two
// classic shapes: the hub-row extreme (max-row-nnz against the mean and
// the total) and the overall inequality (Gini coefficient), computed
// exactly in one pass over the row pointer.

// RowSkew summarizes the row-length distribution of a matrix (cmd/mminfo's
// skew report).
type RowSkew struct {
	// Rows is the row count; MaxRowNNZ the longest row's nonzeros.
	Rows      int
	MaxRowNNZ int
	// MeanRowNNZ is nnz/rows.
	MeanRowNNZ float64
	// MaxShare is MaxRowNNZ over the total nonzeros: the fraction of the
	// matrix one hub row holds.
	MaxShare float64
	// Gini is the Gini coefficient of the row lengths: 0 for perfectly
	// even rows, approaching 1 for power-law matrices.
	Gini float64
}

// skewHistLen caps ComputeRowSkew's length histogram. A row at least
// this long is one of at most nnz/skewHistLen such rows, so sorting them
// costs far less than a histogram as long as a hub row.
const skewHistLen = 1024

// ComputeRowSkew derives the skew statistics from a CSR row pointer
// (len rows+1, monotone). Gini is exact: with sorted lengths x_(1..n),
// G = 2*sum(i*x_(i))/(n*sum x) - (n+1)/n, summed in one pass as a
// counting sort of the lengths below skewHistLen plus a sort of the few
// longer ones, one term per distinct length in ascending order.
func ComputeRowSkew(rowPtr []int) RowSkew {
	rows := len(rowPtr) - 1
	if rows <= 0 {
		return RowSkew{}
	}
	s := RowSkew{Rows: rows}
	nnz := rowPtr[rows] - rowPtr[0]
	var counts [skewHistLen]int
	var long []int
	for i := 0; i < rows; i++ {
		l := rowPtr[i+1] - rowPtr[i]
		s.MaxRowNNZ = max(s.MaxRowNNZ, l)
		if l < skewHistLen {
			counts[l]++
		} else {
			long = append(long, l)
		}
	}
	s.MeanRowNNZ = float64(nnz) / float64(rows)
	if nnz <= 0 {
		return s
	}
	s.MaxShare = float64(s.MaxRowNNZ) / float64(nnz)
	rank := counts[0] // zero-length rows occupy the lowest ranks, weight 0
	weighted := 0.0
	// Ranks rank+1 .. rank+c all carry length l.
	add := func(l, c int) {
		weighted += float64(l) * (float64(c)*float64(rank) + float64(c)*float64(c+1)/2)
		rank += c
	}
	for l := 1; l < skewHistLen; l++ {
		if c := counts[l]; c > 0 {
			add(l, c)
		}
	}
	sort.Ints(long)
	for i := 0; i < len(long); {
		j := i + 1
		for j < len(long) && long[j] == long[i] {
			j++
		}
		add(long[i], j-i)
		i = j
	}
	n := float64(rows)
	s.Gini = 2*weighted/(n*float64(nnz)) - (n+1)/n
	return s
}

// RowsSpanningCores counts the rows an equal-nnz partition across
// `cores` cores cuts mid-row — each one an extraY merge the serial
// epilogue pays for. It is the cheap nnz-cut approximation of the cost
// partition (boundaries at i*nnz/cores), which cmd/mminfo reports
// beside the skew.
func RowsSpanningCores(rowPtr []int, cores int) int {
	rows := len(rowPtr) - 1
	if rows <= 0 || cores < 2 {
		return 0
	}
	nnz := rowPtr[rows] - rowPtr[0]
	if nnz <= 0 {
		return 0
	}
	count, prevRow := 0, -1
	r := 0
	for i := 1; i < cores; i++ {
		c := rowPtr[0] + nnz*i/cores
		for r < rows && rowPtr[r+1] <= c {
			r++
		}
		if r < rows && rowPtr[r] < c && c < rowPtr[r+1] && r != prevRow {
			count++
			prevRow = r
		}
	}
	return count
}
