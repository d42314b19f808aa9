package vendorlike

import (
	"runtime"
	"testing"
	"time"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/exec"
	"haspmv/internal/gen"
)

func TestCorrectnessBothFlavors(t *testing.T) {
	for _, m := range []*amp.Machine{amp.IntelI912900KF(), amp.AMDRyzen97950X3D()} {
		for _, f := range []Flavor{MKL, AOCL} {
			alg := New(f, amp.PAndE)
			t.Run(m.Name+"/"+alg.Name(), func(t *testing.T) {
				algtest.CheckAlgorithm(t, alg, m)
			})
		}
	}
}

func TestPropertyRandomMatrices(t *testing.T) {
	algtest.CheckProperty(t, New(MKL, amp.PAndE), amp.IntelI913900KF(), 10)
	algtest.CheckProperty(t, New(AOCL, amp.PAndE), amp.AMDRyzen97950X3D(), 10)
}

func TestFlavorNames(t *testing.T) {
	if MKL.String() != "oneMKL-like" || AOCL.String() != "AOCL-like" {
		t.Fatal("flavor strings")
	}
	if New(MKL, amp.POnly).Name() == New(AOCL, amp.POnly).Name() {
		t.Fatal("names collide")
	}
}

// The AOCL optimize stage must be measurably more expensive than the MKL
// inspector (Figure 10's ranking mechanism).
func TestAOCLPreprocessingHeavier(t *testing.T) {
	m := amp.AMDRyzen97950X3D()
	a := gen.Spec{Name: "prep", Rows: 60000, Cols: 60000, TargetNNZ: 1200000,
		Dist: gen.NormalLen{Mean: 20, Std: 5, Min: 1, Max: 60}, Place: gen.Random, Seed: 3}.Generate()
	prepTime := func(f Flavor) time.Duration {
		runtime.GC()
		_, d, err := exec.TimePrepare(New(f, amp.PAndE), m, a)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Trials alternate the flavors and each starts from a collected heap,
	// so a burst of load from a package tested alongside, or a GC cycle
	// owed to the previous trial's garbage, cannot land on one flavor only.
	mklTime, aoclTime := time.Duration(1<<62), time.Duration(1<<62)
	for trial := 0; trial < 5; trial++ {
		mklTime = min(mklTime, prepTime(MKL))
		aoclTime = min(aoclTime, prepTime(AOCL))
	}
	if aoclTime < 2*mklTime {
		t.Fatalf("AOCL prep %v not clearly heavier than MKL %v", aoclTime, mklTime)
	}
}

func TestLongRowHintLowersUnroll(t *testing.T) {
	m := amp.IntelI912900KF()
	long := gen.Spec{Name: "lr", Rows: 100, Cols: 20000, TargetNNZ: 100 * 200,
		Dist: gen.ConstLen{L: 200}, Place: gen.Random, Seed: 4}.Generate()
	prep, err := New(MKL, amp.PAndE).Prepare(m, long)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.(*prepared).unroll; got != 32 {
		t.Fatalf("long-row unroll hint = %d, want 32", got)
	}
	short := algtest.Matrix("banded-fem")
	prep, err = New(MKL, amp.PAndE).Prepare(m, short)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.(*prepared).unroll; got == 32 {
		t.Fatal("short-row matrix took long-row hint")
	}
}

func TestRejectsInvalidMatrix(t *testing.T) {
	bad := algtest.Matrix("fig1-8x8").Clone()
	bad.RowPtr[0] = 2
	if _, err := New(MKL, amp.PAndE).Prepare(amp.IntelI912900KF(), bad); err == nil {
		t.Fatal("accepted invalid matrix")
	}
}
