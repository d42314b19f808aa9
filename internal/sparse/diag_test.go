package sparse

import (
	"strings"
	"testing"
)

// tridiag builds an n x n tridiagonal matrix.
func tridiag(n int) *CSR {
	c := &COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		c.Add(i, i, 2)
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

func TestDiagStatsTridiagonal(t *testing.T) {
	a := tridiag(100)
	s := ComputeDiagStats(a, 3)
	if s.Diagonals != 3 {
		t.Fatalf("Diagonals = %d, want 3", s.Diagonals)
	}
	if s.TopShare != 1 {
		t.Fatalf("top-3 share = %v, want 1 (all nnz on 3 diagonals)", s.TopShare)
	}
	// Interior rows are one contiguous 3-run; the two boundary rows are
	// one 2-run each. 100 rows -> 100 runs.
	if s.Runs != 100 {
		t.Fatalf("Runs = %d, want 100", s.Runs)
	}
	if s.MaxRunLen != 3 {
		t.Fatalf("MaxRunLen = %d, want 3", s.MaxRunLen)
	}
	if s.RunLenHist[1] != 100 || s.RunLenHist[0] != 0 {
		t.Fatalf("run hist = %v, want all 100 runs in the 2-3 bucket", s.RunLenHist)
	}
	if !strings.Contains(s.HistString(), "2-3:100") {
		t.Fatalf("HistString = %q", s.HistString())
	}
}

func TestDiagStatsScattered(t *testing.T) {
	// Stride-2 columns: no consecutive pairs, every entry its own run.
	c := &COO{Rows: 50, Cols: 200}
	for i := 0; i < 50; i++ {
		for j := 0; j < 5; j++ {
			c.Add(i, (i+2*j*7)%200, 1)
		}
	}
	a := c.ToCSR()
	s := ComputeDiagStats(a, 2)
	if s.Runs != a.NNZ() {
		t.Fatalf("Runs = %d, want one per nonzero %d", s.Runs, a.NNZ())
	}
	if s.MaxRunLen != 1 || s.RunLenHist[0] != a.NNZ() {
		t.Fatalf("scattered matrix has runs longer than 1: max %d hist %v", s.MaxRunLen, s.RunLenHist)
	}
	if s.Diagonals <= 2 {
		t.Fatalf("Diagonals = %d, want more than the top-2 window", s.Diagonals)
	}
	if s.TopShare >= 1 {
		t.Fatalf("top-2 share = %v, want < 1 on a %d-diagonal matrix", s.TopShare, s.Diagonals)
	}
}

func TestDiagStatsEmpty(t *testing.T) {
	a := &CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 0, 0, 0}}
	s := ComputeDiagStats(a, 8)
	if s.Runs != 0 || s.Diagonals != 0 || s.TopShare != 1 {
		t.Fatalf("empty matrix stats = %+v", s)
	}
}
