package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haspmv/internal/algtest"
	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// snapCases spans the format matrix: every index stream (reference,
// u32, u32+dia mix, forced dia), plus the degenerate shapes, segmented
// execution, the natural order, a one-level partition and a matrix of
// five distinct values, also prepared with the ignored ValueReference
// option set (its meta must still round-trip).
func snapCases() []struct {
	name string
	a    *sparse.CSR
	opts core.Options
} {
	fewValues := gen.Spec{Name: "few", Rows: 400, Cols: 400, Dist: gen.ConstLen{L: 7},
		Place: gen.Banded, Seed: 11}.Generate()
	for k := range fewValues.Val {
		fewValues.Val[k] = float64(k % 5)
	}
	return []struct {
		name string
		a    *sparse.CSR
		opts core.Options
	}{
		{"banded-auto", algtest.Matrix("banded-fem"), core.Options{}},
		{"powerlaw-auto", algtest.Matrix("powerlaw"), core.Options{}},
		{"reference", algtest.Matrix("hub-row"), core.Options{Index: core.IndexReference}},
		{"u32-only", algtest.Matrix("medium-random"), core.Options{Index: core.IndexU32}},
		{"force-dia", algtest.Matrix("banded-fem"), core.Options{Index: core.IndexForceDia}},
		{"segsum", algtest.Matrix("powerlaw"), core.Options{Exec: core.ExecSegSum}},
		{"empty-rows", algtest.Matrix("alternating-empty"), core.Options{}},
		{"tiny", algtest.Matrix("tiny-3x3"), core.Options{}},
		{"natural-order", algtest.Matrix("powerlaw"), core.Options{DisableReorder: true}},
		{"one-level", algtest.Matrix("powerlaw"), core.Options{OneLevel: true}},
		{"few-values", fewValues, core.Options{}},
		{"few-values-as-reference", fewValues, core.Options{Value: core.ValueReference}},
	}
}

func prepare(t testing.TB, m *amp.Machine, a *sparse.CSR, opts core.Options) *core.Prepared {
	t.Helper()
	prep, err := core.New(opts).Prepare(m, a)
	if err != nil {
		t.Fatal(err)
	}
	return prep.(*core.Prepared)
}

func computeVec(p *core.Prepared, rows, cols int) []float64 {
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1 + float64(i%17)/3
	}
	y := make([]float64, rows)
	p.Compute(y, x)
	return y
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Write → Load → Restore must serve bit-identical multiplies, and the
// loaded snapshot must re-encode to the exact file bytes.
func TestRoundTripBitIdentical(t *testing.T) {
	m := amp.IntelI913900KF()
	dir := t.TempDir()
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := prepare(t, m, tc.a, tc.opts)
			want := computeVec(p, tc.a.Rows, tc.a.Cols)

			path := filepath.Join(dir, tc.name+".hps")
			extra := map[string]string{"case": tc.name}
			if err := Write(path, p.Snapshot(), extra); err != nil {
				t.Fatal(err)
			}
			f, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Extra["case"] != tc.name {
				t.Fatalf("extra %v did not round-trip", f.Extra)
			}

			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			re, err := Encode(f.Snap, f.Extra)
			if err != nil {
				t.Fatal(err)
			}
			if string(re) != string(onDisk) {
				t.Fatalf("re-encode of loaded snapshot differs from file bytes (%d vs %d bytes)", len(re), len(onDisk))
			}

			r, err := core.RestorePrepared(m, f.Snap)
			if err != nil {
				t.Fatal(err)
			}
			got := computeVec(r, tc.a.Rows, tc.a.Cols)
			if !bitsEqual(got, want) {
				t.Fatal("restored multiply not bit-identical to original")
			}
			// The restore must survive a boundary move too.
			if err := r.Repartition(core.Plan{PProportion: 0.5}); err != nil {
				t.Fatal(err)
			}
			p.Repartition(core.Plan{PProportion: 0.5})
			if !bitsEqual(computeVec(r, tc.a.Rows, tc.a.Cols), computeVec(p, tc.a.Rows, tc.a.Cols)) {
				t.Fatal("restored multiply diverges after repartition")
			}
		})
	}
}

// writeSample writes one small store file and returns its bytes.
func writeSample(t *testing.T) (string, []byte) {
	t.Helper()
	m := amp.IntelI913900KF()
	p := prepare(t, m, algtest.Matrix("banded-fem"), core.Options{})
	path := filepath.Join(t.TempDir(), "sample.hps")
	if err := Write(path, p.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, buf
}

func reloadBytes(t *testing.T, path string, buf []byte) error {
	t.Helper()
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Decode(buf)
	if err != nil {
		// The file path must agree so -store-dir surfaces the same error.
		if _, lerr := Load(path); lerr == nil {
			t.Fatal("Decode rejected bytes Load accepted")
		}
	}
	return err
}

// A future format version must be rejected with ErrVersion and a
// message that tells the operator what to do, not a checksum error or
// a panic — the store-version-bump contract CI relies on.
func TestVersionBumpRejected(t *testing.T) {
	path, buf := writeSample(t)
	binary.LittleEndian.PutUint32(buf[8:12], Version+1)
	// Re-seal the header so the version field, not its checksum, is
	// what the loader trips on.
	binary.LittleEndian.PutUint32(buf[60:64], crc32.Checksum(buf[0:60], castagnoli))
	err := reloadBytes(t, path, buf)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "re-run Prepare") {
		t.Fatalf("version error %q does not tell the operator how to recover", err)
	}
}

// A file from an older format version — version 2 still carried the
// u16-delta column sections, version 3 the 8-byte diagonal run
// descriptors, version 4 the palette value sections — must be refused
// with ErrVersion naming the file's version, not decoded against this
// build's section list.
func TestOlderVersionRejected(t *testing.T) {
	for _, v := range []uint32{2, 3, 4} {
		path, buf := writeSample(t)
		binary.LittleEndian.PutUint32(buf[8:12], v)
		binary.LittleEndian.PutUint32(buf[60:64], crc32.Checksum(buf[0:60], castagnoli))
		err := reloadBytes(t, path, buf)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("format version %d", v)) {
			t.Fatalf("version error %q does not name the file's version %d", err, v)
		}
	}
}

func TestCorruptionRejected(t *testing.T) {
	_, buf := writeSample(t)
	metaLen := int64(binary.LittleEndian.Uint32(buf[16:20]))
	chunkCount := int64(binary.LittleEndian.Uint32(buf[20:24]))
	tableOff := align8(headerSize + metaLen)
	payloadOff := align8(tableOff + 4*chunkCount)

	cases := []struct {
		name string
		mut  func(b []byte) []byte
		want error
	}{
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrFormat},
		{"header-field", func(b []byte) []byte { b[24] ^= 0x01; return b }, ErrChecksum},
		{"meta-json", func(b []byte) []byte { b[headerSize+2] ^= 0x40; return b }, ErrChecksum},
		{"chunk-table", func(b []byte) []byte { b[tableOff] ^= 0x01; return b }, ErrChecksum},
		{"payload-first", func(b []byte) []byte { b[payloadOff] ^= 0x80; return b }, ErrChecksum},
		{"payload-last", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, ErrChecksum},
		{"truncated", func(b []byte) []byte { return b[:len(b)-100] }, ErrFormat},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAB) }, ErrFormat},
		{"short", func(b []byte) []byte { return b[:headerSize-1] }, ErrFormat},
		{"empty", func(b []byte) []byte { return nil }, ErrFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), buf...))
			_, _, err := Decode(mut)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// Write must be atomic: the destination either keeps the old complete
// file or gets the new one, and no temp litter survives a completed
// write.
func TestWriteAtomicRename(t *testing.T) {
	m := amp.IntelI913900KF()
	p := prepare(t, m, algtest.Matrix("tiny-3x3"), core.Options{})
	dir := t.TempDir()
	path := filepath.Join(dir, "a.hps")
	if err := Write(path, p.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, p.Snapshot(), map[string]string{"gen": "2"}); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Extra["gen"] != "2" {
		t.Fatal("second write did not replace the file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(ents))
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.hps")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// The restored instance must reject the wrong machine (its partition
// was cut for another core set).
func TestRestoreWrongMachine(t *testing.T) {
	p := prepare(t, amp.IntelI913900KF(), algtest.Matrix("banded-fem"), core.Options{})
	path := filepath.Join(t.TempDir(), "m.hps")
	if err := Write(path, p.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.RestorePrepared(amp.AMDRyzen97950X(), f.Snap); err == nil {
		t.Fatal("restore on the wrong machine must fail")
	}
}

// LoadAsync defers only the payload checksum sweep: structural
// corruption still fails the call itself, while payload corruption
// loads eagerly and surfaces through Verified.
func TestLoadAsyncVerifyBehind(t *testing.T) {
	path, buf := writeSample(t)

	f, err := LoadAsync(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verified(); err != nil {
		t.Fatalf("clean file: Verified = %v", err)
	}
	if err := f.Verified(); err != nil {
		t.Fatalf("Verified must stay callable after completion: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Payload corruption: structure is intact, so the async load
	// succeeds and only the background sweep reports it; the
	// synchronous Load rejects the same bytes eagerly.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0x80
	badPath := filepath.Join(t.TempDir(), "bad.hps")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err = LoadAsync(badPath)
	if err != nil {
		t.Fatalf("async load of payload-corrupt file: %v", err)
	}
	if err := f.Verified(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Verified: got %v, want ErrChecksum", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); !errors.Is(err, ErrChecksum) {
		t.Fatalf("sync Load: got %v, want ErrChecksum", err)
	}

	// Structural corruption (header checksum) fails LoadAsync itself —
	// the window never escapes to a caller.
	hdr := append([]byte(nil), buf...)
	hdr[24] ^= 0x01
	hdrPath := filepath.Join(t.TempDir(), "hdr.hps")
	if err := os.WriteFile(hdrPath, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAsync(hdrPath); !errors.Is(err, ErrChecksum) {
		t.Fatalf("structural corruption: got %v, want ErrChecksum", err)
	}
}

// Close before Verified must wait the sweep out rather than unmap the
// window under it (run with -race to make the ordering observable).
func TestLoadAsyncCloseBeforeVerified(t *testing.T) {
	path, _ := writeSample(t)
	for i := 0; i < 8; i++ {
		f, err := LoadAsync(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
