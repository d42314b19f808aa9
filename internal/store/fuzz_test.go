package store

import (
	"errors"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// fuzzSeedCases mirrors snapCases' section coverage on miniature
// matrices, so every section layout the writer can produce is in the
// corpus without multi-megabyte seed files. The three-valued matrix
// keeps the "palette" names of its checked-in seed files; one of its
// cases sets the ignored Options.Value, which the meta round-trips.
func fuzzSeedCases() []struct {
	name string
	a    *sparse.CSR
	opts core.Options
} {
	// Rows of 8 consecutive columns.
	banded := gen.Spec{Name: "b", Rows: 96, Cols: 96, Dist: gen.ConstLen{L: 8},
		Place: gen.Banded, Seed: 3}.Generate()
	scattered := gen.Spec{Name: "s", Rows: 80, Cols: 80, TargetNNZ: 400,
		Dist: gen.UniformLen{Min: 0, Max: 12}, Place: gen.Random, Seed: 4}.Generate()
	skewed := gen.Spec{Name: "k", Rows: 90, Cols: 90, TargetNNZ: 500,
		Dist: gen.NewPowerLen(1, 40, 4), Place: gen.Skewed, Seed: 5, HubRows: 1}.Generate()
	fewValued := gen.Spec{Name: "p", Rows: 64, Cols: 64, Dist: gen.ConstLen{L: 4},
		Place: gen.Banded, Seed: 6}.Generate()
	for k := range fewValued.Val {
		fewValued.Val[k] = float64(k % 3)
	}
	return []struct {
		name string
		a    *sparse.CSR
		opts core.Options
	}{
		{"banded-auto", banded, core.Options{}},
		{"reference", skewed, core.Options{Index: core.IndexReference}},
		{"scattered-default", scattered, core.Options{}},
		{"banded-natural-order", banded, core.Options{DisableReorder: true}},
		{"palette", fewValued, core.Options{}},
		{"serial", skewed, core.Options{Exec: core.ExecSerial}},
		{"tiny", algtest.Matrix("tiny-3x3"), core.Options{}},
		{"natural-order", skewed, core.Options{DisableReorder: true}},
		{"palette-as-reference", fewValued, core.Options{Value: core.ValueReference}},
	}
}

// fuzzSeeds encodes one store file per seed case,
// so the fuzzer starts from every section layout the writer can
// produce.
func fuzzSeeds(t testing.TB) []struct {
	name string
	data []byte
} {
	t.Helper()
	m := amp.IntelI913900KF()
	var seeds []struct {
		name string
		data []byte
	}
	for _, tc := range fuzzSeedCases() {
		p := prepare(t, m, tc.a, tc.opts)
		buf, err := Encode(p.Snapshot(), map[string]string{"seed": tc.name})
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, struct {
			name string
			data []byte
		}{tc.name, buf})
	}
	return seeds
}

// FuzzStoreRoundTrip is the store's safety contract on arbitrary
// bytes: Decode either fails cleanly with one of the sentinel errors,
// or accepts — and an accepted image must re-encode to the identical
// bytes and restore into a servable instance without panicking. The
// checked-in corpus under testdata/fuzz holds one writer-produced file
// per seed case; the fuzzer mutates from there.
func FuzzStoreRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, extra, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("rejection is not a sentinel error: %v", err)
			}
			return
		}
		re, err := Encode(snap, extra)
		if err != nil {
			t.Fatalf("accepted image failed to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("accepted image re-encodes to %d bytes, input was %d — round trip not bit-identical", len(re), len(data))
		}
		// An accepted image is structurally sound bytes-wise; restore
		// must still never panic on it (shape mismatches the CRCs can't
		// see fail through checkSnapshot). Cap the work for the fuzzer.
		if snap.Meta.Rows > 1<<16 || len(snap.Val) > 1<<20 {
			return
		}
		if m, ok := amp.ByName(snap.Meta.MachineName); ok {
			if p, rerr := core.RestorePrepared(m, snap); rerr == nil {
				y := make([]float64, snap.Meta.Rows)
				x := make([]float64, snap.Meta.Cols)
				for i := range x {
					x[i] = 1
				}
				p.Compute(y, x)
			}
		}
	})
}
