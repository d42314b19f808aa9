package server

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"haspmv/internal/amp"
	"haspmv/internal/core"
	"haspmv/internal/store"
	"haspmv/internal/telemetry"
)

func newStoreRegistry(t testing.TB, src MatrixSource, maxEntries int, dir string, opts core.Options) *Registry {
	t.Helper()
	r := NewRegistry(amp.IntelI912900KF(), core.New(opts), RegistryOptions{
		MaxEntries: maxEntries,
		Source:     src,
		StoreDir:   dir,
	})
	t.Cleanup(r.Close)
	return r
}

// submitRetry multiplies through the entry's batcher, re-Getting when
// the entry was evicted mid-flight (the documented ErrDraining
// protocol).
func submitRetry(t testing.TB, r *Registry, name string, scale, n int) []float64 {
	t.Helper()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	y := make([]float64, n)
	for attempt := 0; attempt < 50; attempt++ {
		e, err := r.Get(context.Background(), name, scale)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if _, err := e.Batcher.Submit(context.Background(), y, x); err == nil {
			return y
		} else if !errors.Is(err, ErrDraining) {
			t.Fatalf("Submit(%s): %v", name, err)
		}
	}
	t.Fatalf("Submit(%s): still draining after 50 retries", name)
	return nil
}

// A capacity-1 registry with a store dir must serve an evicted matrix
// from disk — bit-identical responses, no second generate+Prepare.
func TestRegistryStoreSpillRestore(t *testing.T) {
	src := &countingSource{size: 96}
	dir := t.TempDir()
	r := newStoreRegistry(t, src.source(t), 1, dir, core.Options{})

	y1 := submitRetry(t, r, "a", 16, 96)
	r.spills.Wait() // write-through lands before we thrash the cache
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("store dir after first build: %v entries, err %v", len(ents), err)
	}

	submitRetry(t, r, "b", 16, 96) // evicts "a"
	y2 := submitRetry(t, r, "a", 16, 96)

	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
			t.Fatalf("row %d differs after spill→restore", i)
		}
	}
	if n := src.count(Key("a", 16)); n != 1 {
		t.Fatalf("matrix a generated %d times, want 1 (restore must skip Prepare)", n)
	}
	e, err := r.Get(context.Background(), "a", 16)
	if err != nil {
		t.Fatal(err)
	}
	if !e.FromStore {
		t.Fatal("entry for re-fetched matrix not marked FromStore")
	}
}

// Thrashing a capacity-1 registry across two keys from many goroutines
// must never double-Prepare a key (the spill/evict race): a cold Get
// waits for the key's in-flight write-through and restores from it.
func TestRegistryStoreThrashNoDoublePrepare(t *testing.T) {
	src := &countingSource{size: 96}
	r := newStoreRegistry(t, src.source(t), 1, t.TempDir(), core.Options{})

	ref := submitRetry(t, r, "a", 16, 96)
	r.spills.Wait()

	const workers, iters = 8, 6
	var wg sync.WaitGroup
	results := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "a"
			if w%2 == 1 {
				name = "b"
			}
			for it := 0; it < iters; it++ {
				y := submitRetry(t, r, name, 16, 96)
				if name == "a" {
					results[w] = y
				}
			}
		}(w)
	}
	wg.Wait()

	for _, key := range []string{Key("a", 16), Key("b", 16)} {
		if n := src.count(key); n != 1 {
			t.Fatalf("%s generated %d times under thrash, want 1", key, n)
		}
	}
	for w, y := range results {
		if y == nil {
			continue
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("worker %d row %d differs from pre-spill response", w, i)
			}
		}
	}
}

// A corrupt, truncated or foreign store file must never be served: the
// registry falls back to generate+Prepare and overwrites it.
func TestRegistryStoreBadFileFallsBack(t *testing.T) {
	// storeFile spills one valid store file for the 96-row source and
	// returns its bytes.
	storeFile := func(t *testing.T) []byte {
		src := &countingSource{size: 96}
		d2 := t.TempDir()
		r2 := newStoreRegistry(t, src.source(t), 1, d2, core.Options{})
		submitRetry(t, r2, "seed", 16, 96)
		r2.spills.Wait()
		ents, err := os.ReadDir(d2)
		if err != nil || len(ents) != 1 {
			t.Fatalf("seed store: %d entries, %v", len(ents), err)
		}
		buf, err := os.ReadFile(filepath.Join(d2, ents[0].Name()))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	cases := []struct {
		name string
		file func(t *testing.T, path string)
	}{
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a store file at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string) {
			buf := storeFile(t)
			if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"previous-version", func(t *testing.T, path string) {
			writeVersionPatched(t, path, storeFile(t), store.Version-1)
		}},
		{"next-version", func(t *testing.T, path string) {
			writeVersionPatched(t, path, storeFile(t), store.Version+1)
		}},
	}
	// Misses are counted only while telemetry collects.
	prev := telemetry.Activate(telemetry.NewCollector())
	t.Cleanup(func() { telemetry.Activate(prev) })
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &countingSource{size: 96}
			dir := t.TempDir()
			r := newStoreRegistry(t, src.source(t), 1, dir, core.Options{})
			tc.file(t, r.storePath(Key("a", 16)))
			misses := cStoreMisses.Value()
			submitRetry(t, r, "a", 16, 96)
			if n := cStoreMisses.Value() - misses; n != 1 {
				t.Fatalf("bad file: %d store misses counted, want 1", n)
			}
			if n := src.count(Key("a", 16)); n != 1 {
				t.Fatalf("bad file: matrix generated %d times, want 1 fallback build", n)
			}
			e, err := r.Get(context.Background(), "a", 16)
			if err != nil {
				t.Fatal(err)
			}
			if e.FromStore {
				t.Fatal("bad store file was served")
			}
		})
	}
}

// writeVersionPatched writes a well-formed store file whose header
// claims another format version: it patches the header's version word
// and re-seals the header CRC (the last four header bytes, CRC32-C over
// the first 60), so the version check is the only thing the loader can
// trip on.
func writeVersionPatched(t *testing.T, path string, buf []byte, version uint32) {
	t.Helper()
	binary.LittleEndian.PutUint32(buf[8:12], version)
	binary.LittleEndian.PutUint32(buf[60:64], crc32.Checksum(buf[:60], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(path); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("file patched to version %d loads with %v, want ErrVersion", version, err)
	}
}

// A file spilled by a differently-configured algorithm must miss: its
// partition and streams answer a different Options set.
func TestRegistryStoreAlgMismatch(t *testing.T) {
	dir := t.TempDir()
	src1 := &countingSource{size: 96}
	r1 := newStoreRegistry(t, src1.source(t), 1, dir, core.Options{})
	submitRetry(t, r1, "a", 16, 96)
	r1.spills.Wait()
	r1.Close()

	src2 := &countingSource{size: 96}
	r2 := newStoreRegistry(t, src2.source(t), 1, dir, core.Options{Metric: core.NNZCost})
	submitRetry(t, r2, "a", 16, 96)
	if n := src2.count(Key("a", 16)); n != 1 {
		t.Fatalf("foreign-alg file: generated %d times, want a fresh build", n)
	}
	e, err := r2.Get(context.Background(), "a", 16)
	if err != nil {
		t.Fatal(err)
	}
	if e.FromStore {
		t.Fatal("store file from a different algorithm was served")
	}
}

// A restart (new registry over the same dir) cold-starts every matrix
// from the store with zero generate+Prepare calls.
func TestRegistryStoreColdStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	src1 := &countingSource{size: 96}
	r1 := newStoreRegistry(t, src1.source(t), 4, dir, core.Options{})
	y1 := submitRetry(t, r1, "a", 16, 96)
	r1.Close() // drains spills

	src2 := &countingSource{size: 96}
	r2 := newStoreRegistry(t, src2.source(t), 4, dir, core.Options{})
	y2 := submitRetry(t, r2, "a", 16, 96)
	if n := src2.count(Key("a", 16)); n != 0 {
		t.Fatalf("restart generated the matrix %d times, want 0 (pure cold start)", n)
	}
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
			t.Fatalf("row %d differs across restart", i)
		}
	}
	// The restored snapshot still matches the store's own reading.
	e, _ := r2.Get(context.Background(), "a", 16)
	if !e.FromStore || e.NNZ == 0 {
		t.Fatalf("restart entry: FromStore=%v NNZ=%d", e.FromStore, e.NNZ)
	}
	f, err := store.Load(r2.storePath(Key("a", 16)))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// A store file whose structure is intact but whose payload fails the
// verify-behind checksum sweep must be retired: watchVerify removes
// the file, drops the restored entry, and the next Get rebuilds from
// scratch (its write-through lays down a fresh file).
func TestRegistryStoreVerifyFailureRetiresEntry(t *testing.T) {
	dir := t.TempDir()
	src1 := &countingSource{size: 96}
	r1 := newStoreRegistry(t, src1.source(t), 1, dir, core.Options{})
	want := submitRetry(t, r1, "a", 16, 96)
	r1.Close() // drains the write-through

	// Flip one payload byte: every structural checksum still matches,
	// only the chunk sweep can see the damage.
	path := r1.storePath(Key("a", 16))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x80
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	src2 := &countingSource{size: 96}
	r2 := newStoreRegistry(t, src2.source(t), 1, dir, core.Options{})
	e, err := r2.Get(context.Background(), "a", 16)
	if err != nil {
		t.Fatal(err)
	}
	if !e.FromStore {
		t.Fatal("corrupt-payload file should restore eagerly (structure is intact)")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		e, err := r2.Get(context.Background(), "a", 16)
		if err != nil {
			t.Fatal(err)
		}
		if !e.FromStore {
			break // retired and rebuilt
		}
		if time.Now().After(deadline) {
			t.Fatal("corrupt entry never retired by the verify sweep")
		}
		time.Sleep(time.Millisecond)
	}
	if n := src2.count(Key("a", 16)); n != 1 {
		t.Fatalf("rebuild generated the matrix %d times, want 1", n)
	}
	got := submitRetry(t, r2, "a", 16, 96)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d differs after verify-failure rebuild", i)
		}
	}
}
