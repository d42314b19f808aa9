package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haspmv/internal/mmio"
	"haspmv/internal/sparse"
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

func TestDiagAndValueLines(t *testing.T) {
	path := writeTestMatrix(t)
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
	out := buf.String()
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
