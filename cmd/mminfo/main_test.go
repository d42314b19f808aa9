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

// runOutput runs mminfo with args and returns what it printed.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
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

// The structural report is four lines: the row statistics, the band and
// density, the index width and the row-length skew. On the 3x3
// tridiagonal test matrix the skew line reads a 3-nonzero longest row
// and one row cut by every interior boundary of a 16-core equal-nnz
// split (3 rows in all).
func TestInfoLines(t *testing.T) {
	path := writeTestMatrix(t)
	want := path + ": 3x3 nnz=7 rowlen(min=2 avg=2.3 max=3) empty=0 gini=0.095\n" +
		"bandwidth=1 density=0.778 sorted-rows=true\n" +
		"index-width=u8\n" +
		"max-row-nnz=3 mean-row-nnz=2.33 hub-share=42.9% gini=0.095 spanning-rows@16cores=3\n"
	if out := runOutput(t, path); out != want {
		t.Errorf("output\n%s\nwant\n%s", out, want)
	}
}

// The index line reports only the absolute column-index width: the
// 3-column test matrix fits u8, and no per-row span, delta-stream or
// diagonal figures are printed, since Prepare streams u32 only. Nor is
// a distinct-value count (Prepare streams every matrix's own values) or
// an execution-mode verdict (every matrix runs segmented).
func TestIndexWidthLine(t *testing.T) {
	out := runOutput(t, writeTestMatrix(t))
	if !strings.Contains(out, "index-width=u8\n") {
		t.Errorf("output missing the index-width=u8 line:\n%s", out)
	}
	for _, gone := range []string{"max-row-col-span", "u16-delta", "distinct-values", "palette-eligible", "diagonals=", "exec="} {
		if strings.Contains(out, gone) {
			t.Errorf("output still reports %q:\n%s", gone, out)
		}
	}
}

// The -spmv report's auto P-proportion is the one a default Prepare
// cuts at.
func TestSpMVProportionLine(t *testing.T) {
	path := writeTestMatrix(t)
	a, err := mmio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := amp.IntelI912900KF()
	prep, err := haspmvcore.New(haspmvcore.Options{}).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("auto P-proportion: %.3f, auto base: %d\n",
		prep.(*haspmvcore.Prepared).Plan().PProportion, haspmvcore.AutoBase(a))
	if out := runOutput(t, "-spmv", "-machine", m.Name, path); !strings.HasSuffix(out, want) {
		t.Errorf("output does not end with %q:\n%s", want, out)
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
