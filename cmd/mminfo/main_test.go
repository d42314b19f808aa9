package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/mmio"
	"haspmv/internal/sparse"

	haspmvcore "haspmv/internal/core"
)

func writeTestMatrix(t *testing.T) string {
	t.Helper()
	a := sparse.FromDense([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	}, 0)
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := mmio.WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInfoAndConvert(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{path}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.mtx")
	if err := run([]string{"-convert", out, path}); err != nil {
		t.Fatal(err)
	}
	a, err := mmio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 7 {
		t.Fatalf("converted nnz %d", a.NNZ())
	}
}

// runOutput runs mminfo on path and returns what it printed.
func runOutput(t *testing.T, path string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{path})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	var buf strings.Builder
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestDiagAndValueLines(t *testing.T) {
	out := runOutput(t, writeTestMatrix(t))
	// The 3x3 tridiagonal test matrix: 3 diagonals carry all nnz, every
	// row is one contiguous run, values {4,-1} are palette eligible.
	for _, want := range []string{
		"diagonals=3", "top8-diag-nnz=100.0%", "runs=3",
		"distinct-values=2", "palette-eligible=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// mminfo's distinct-values count and Prepare's palette discovery share
// one counter, so they agree on every side of the palette limit.
func TestDistinctValuesMatchPrepare(t *testing.T) {
	for _, k := range []int{1, 5, 256, 257} {
		const n = 600
		c := &sparse.COO{Rows: n, Cols: n}
		for i := 0; i < n; i++ {
			c.Add(i, i, float64(1+i%k))
		}
		a := c.ToCSR()
		path := filepath.Join(t.TempDir(), "m.mtx")
		if err := mmio.WriteFile(path, a); err != nil {
			t.Fatal(err)
		}
		prep, err := haspmvcore.New(haspmvcore.Options{}).Prepare(amp.IntelI912900KF(), a)
		if err != nil {
			t.Fatal(err)
		}
		distinct := prep.(*haspmvcore.Prepared).ValueStats().Distinct
		if distinct != min(k, haspmvcore.PaletteMax+1) {
			t.Fatalf("%d distinct values: Prepare counts %d", k, distinct)
		}
		want := fmt.Sprintf("distinct-values=%d ", distinct)
		if distinct > haspmvcore.PaletteMax {
			want = fmt.Sprintf("distinct-values=>%d ", haspmvcore.PaletteMax)
		}
		if out := runOutput(t, path); !strings.Contains(out, want) {
			t.Errorf("%d distinct values: Prepare counts %d, mminfo printed:\n%s", k, distinct, out)
		}
	}
}

func TestSpMVMode(t *testing.T) {
	path := writeTestMatrix(t)
	if err := run([]string{"-spmv", "-machine", "7950X3D", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spmv", "-machine", "vax", path}); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"/definitely/missing.mtx"}); err == nil {
		t.Fatal("nonexistent file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.mtx")
	if err := os.WriteFile(bad, []byte("not a matrix"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}); err == nil || !strings.Contains(err.Error(), "Matrix Market") {
		t.Fatalf("malformed file: %v", err)
	}
}
