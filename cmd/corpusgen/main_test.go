package main

import (
	"os"
	"path/filepath"
	"testing"

	"haspmv/internal/mmio"
)

func TestCorpusGeneration(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "-n", "3", "-maxnnz", "4000"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("files: %d", len(entries))
	}
	a, err := mmio.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepresentativeGeneration(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "-representative", "-scale", "256"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 22 {
		t.Fatalf("files: %d, want the 22 Table II matrices", len(entries))
	}
}

func TestStencilGeneration(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-dir", dir, "-stencil", "-rows", "2000", "-cols", "2000",
		"-diags", "9", "-noise", "0.01", "-palette", "4"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	a, err := mmio.ReadFile(filepath.Join(dir, "stencil-2000x2000-d9.mtx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, v := range a.Val {
		distinct[v] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("palette 4 produced %d distinct values", len(distinct))
	}
}

func TestFlagErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -dir accepted")
	}
	if err := run([]string{"-dir", "/proc/definitely/not/writable"}); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}
