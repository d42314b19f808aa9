package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"haspmv/internal/amp"
	"haspmv/internal/baselines/csrsimple"
	"haspmv/internal/core"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
)

// diagCSR builds an n-by-n diagonal matrix, the cheapest possible
// registry payload.
func diagCSR(t testing.TB, n int) *sparse.CSR {
	t.Helper()
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = i
		val[i] = float64(i + 1)
	}
	a, err := sparse.NewCSR(n, n, rowPtr, colIdx, val)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	return a
}

// countingSource counts how many times each key is materialized and can
// fail the first N builds of a key.
type countingSource struct {
	mu       sync.Mutex
	builds   map[string]int
	failures map[string]int
	size     int
}

func (s *countingSource) source(t testing.TB) MatrixSource {
	return func(name string, scale int) (*sparse.CSR, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.builds == nil {
			s.builds = make(map[string]int)
		}
		key := Key(name, scale)
		s.builds[key]++
		if s.failures[key] > 0 {
			s.failures[key]--
			return nil, errors.New("injected build failure")
		}
		return diagCSR(t, s.size), nil
	}
}

func (s *countingSource) count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds[key]
}

func newTestRegistry(t testing.TB, src MatrixSource, maxEntries int) *Registry {
	t.Helper()
	r := NewRegistry(amp.IntelI912900KF(), core.New(core.Options{}), RegistryOptions{
		MaxEntries: maxEntries,
		Source:     src,
	})
	t.Cleanup(r.Close)
	return r
}

// TestRegistrySingleFlight: concurrent Gets for one key share a single
// generate+Prepare.
func TestRegistrySingleFlight(t *testing.T) {
	src := &countingSource{size: 64}
	r := newTestRegistry(t, src.source(t), 8)

	const callers = 16
	var wg sync.WaitGroup
	var failed atomic.Int32
	entries := make([]*Entry, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := r.Get(context.Background(), "consph", 16)
			if err != nil {
				failed.Add(1)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d concurrent Gets failed", failed.Load())
	}
	if n := src.count(Key("consph", 16)); n != 1 {
		t.Fatalf("matrix built %d times under concurrent Get, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
}

// TestRegistryErrorNotCached: a failed build is forgotten, so the next
// Get retries and can succeed.
func TestRegistryErrorNotCached(t *testing.T) {
	src := &countingSource{size: 64, failures: map[string]int{Key("cant", 16): 1}}
	r := newTestRegistry(t, src.source(t), 8)

	if _, err := r.Get(context.Background(), "cant", 16); err == nil {
		t.Fatal("first Get: expected injected failure")
	}
	e, err := r.Get(context.Background(), "cant", 16)
	if err != nil {
		t.Fatalf("second Get should retry and succeed: %v", err)
	}
	if e.Rows != 64 {
		t.Fatalf("entry rows = %d, want 64", e.Rows)
	}
	if n := src.count(Key("cant", 16)); n != 2 {
		t.Fatalf("build count = %d, want 2 (one failure, one retry)", n)
	}
}

// TestRegistryLRUEviction: beyond MaxEntries the least recently used
// entry is evicted and its batcher drained; re-requesting it rebuilds.
func TestRegistryLRUEviction(t *testing.T) {
	src := &countingSource{size: 64}
	r := newTestRegistry(t, src.source(t), 2)
	ctx := context.Background()

	a, err := r.Get(ctx, "consph", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, "cant", 16); err != nil {
		t.Fatal(err)
	}
	// Touch "consph" so "cant" is the LRU victim when a third key
	// arrives, and check the cache hit returns the same entry.
	a2, err := r.Get(ctx, "consph", 16)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Fatal("cache hit rebuilt the entry")
	}
	if _, err := r.Get(ctx, "rma10", 16); err != nil {
		t.Fatal(err)
	}

	keys := map[string]bool{}
	for _, e := range r.Entries() {
		keys[e.Key] = true
	}
	if len(keys) != 2 || !keys[Key("consph", 16)] || !keys[Key("rma10", 16)] {
		t.Fatalf("resident after eviction: %v, want {consph@16, rma10@16}", keys)
	}

	// The evicted key rebuilds on demand (evicting the now-LRU consph).
	if _, err := r.Get(ctx, "cant", 16); err != nil {
		t.Fatalf("re-Get of evicted key: %v", err)
	}
	if n := src.count(Key("cant", 16)); n != 2 {
		t.Fatalf("evicted key built %d times, want 2", n)
	}
	keys = map[string]bool{}
	for _, e := range r.Entries() {
		keys[e.Key] = true
	}
	if len(keys) != 2 || !keys[Key("cant", 16)] || !keys[Key("rma10", 16)] {
		t.Fatalf("resident after re-Get: %v, want {cant@16, rma10@16}", keys)
	}
}

// TestRegistryUnknownAndTooLarge covers the default source's rejection
// paths.
func TestRegistryUnknownAndTooLarge(t *testing.T) {
	r := NewRegistry(amp.IntelI912900KF(), core.New(core.Options{}), RegistryOptions{
		Source: DefaultSource(1000),
	})
	t.Cleanup(r.Close)

	if _, err := r.Get(context.Background(), "no-such-matrix", 16); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("unknown name: err = %v, want ErrUnknownMatrix", err)
	}
	if _, err := r.Get(context.Background(), "circuit5M", 1); !errors.Is(err, ErrMatrixTooLarge) {
		t.Fatalf("oversized matrix: err = %v, want ErrMatrixTooLarge", err)
	}
}

// TestRegistryAdaptationWiring: with RegistryOptions.Adapt set, every
// HASpMV entry carries an online repartitioning adapter fed by its
// batcher — one flushed batch counts as one observed multiply — while
// baseline algorithms are served unchanged (no adapter).
func TestRegistryAdaptationWiring(t *testing.T) {
	src := func(name string, scale int) (*sparse.CSR, error) {
		return gen.Representative("rma10", 64), nil
	}
	r := NewRegistry(amp.IntelI912900KF(), core.New(core.Options{}), RegistryOptions{
		MaxEntries: 4,
		Source:     src,
		Adapt:      &core.AdapterOptions{Every: 1},
	})
	defer r.Close()

	e, err := r.Get(context.Background(), "rma10", 64)
	if err != nil {
		t.Fatal(err)
	}
	if e.Adapter == nil {
		t.Fatal("HASpMV entry has no adapter despite RegistryOptions.Adapt")
	}
	x := make([]float64, e.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, e.Rows)
	const submits = 5
	for i := 0; i < submits; i++ {
		if _, err := e.Batcher.Submit(context.Background(), y, x); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	st := e.Adapter.Stats()
	if st.Multiplies == 0 || st.Multiplies > submits {
		t.Fatalf("adapter observed %d multiplies after %d serial submits, want 1..%d",
			st.Multiplies, submits, submits)
	}
	if st.Epochs == 0 {
		t.Fatalf("adapter completed no epochs with Every=1: %+v", st)
	}

	// A baseline algorithm through the same options gets no adapter.
	rb := NewRegistry(amp.IntelI912900KF(), csrsimple.New(amp.PAndE, csrsimple.ByRows), RegistryOptions{
		MaxEntries: 4,
		Source:     src,
		Adapt:      &core.AdapterOptions{Every: 1},
	})
	defer rb.Close()
	eb, err := rb.Get(context.Background(), "rma10", 64)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Adapter != nil {
		t.Fatal("baseline entry unexpectedly carries an adapter")
	}
}

// TestRegistryShardKeysAndGetShard: shard entries cache under distinct
// keys, carry their Desc, and the sliced dimensions match the plan.
func TestRegistryShardKeysAndGetShard(t *testing.T) {
	if ShardKey("a", 16, 0, 1) != Key("a", 16) {
		t.Fatal("single-shard key must collapse to the plain key")
	}
	if ShardKey("a", 16, 1, 3) == ShardKey("a", 16, 2, 3) {
		t.Fatal("distinct shards share a key")
	}

	r := NewRegistry(amp.IntelI912900KF(), core.New(core.Options{}), RegistryOptions{
		MaxEntries: 8,
	})
	t.Cleanup(r.Close)
	plan, err := r.ShardPlan("dawson5", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("%d shards, want 3", len(plan))
	}
	for i, d := range plan {
		e, err := r.GetShard(context.Background(), "dawson5", 64, i, 3)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if e.Shard != d {
			t.Fatalf("shard %d entry desc %+v != plan %+v", i, e.Shard, d)
		}
		if e.Rows != d.Rows() || e.Cols != d.Cols() || e.NNZ != d.NNZ() {
			t.Fatalf("shard %d dims %d x %d (%d nnz) disagree with desc", i, e.Rows, e.Cols, e.NNZ)
		}
	}
	if _, err := r.GetShard(context.Background(), "dawson5", 64, 3, 3); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := r.GetShard(context.Background(), "dawson5", 64, -1, 3); err == nil {
		t.Fatal("negative shard index accepted")
	}
}

// TestRegistryEvictionRacesSingleFlight is the supervisor-restart
// scenario: a worker re-warming its cache races the LRU evicting the
// same keys (capacity 1 forces an eviction on every other build). Every
// Get must return a usable entry whose batcher still answers, no matter
// how build, eviction, and concurrent single-flight joins interleave.
func TestRegistryEvictionRacesSingleFlight(t *testing.T) {
	src := &countingSource{size: 8}
	r := newTestRegistry(t, src.source(t), 1)

	names := []string{"a", "b", "c"}
	const workers, iters = 8, 30
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := make([]float64, 8)
			y := make([]float64, 8)
			for i := range x {
				x[i] = float64(i + 1)
			}
			for i := 0; i < iters; i++ {
				name := names[(w+i)%len(names)]
				e, err := r.Get(context.Background(), name, 16)
				if err != nil {
					errCh <- err
					return
				}
				// The entry may be evicted from the map at any moment, but a
				// handed-out batcher must finish work already submitted.
				if _, err := e.Batcher.Submit(context.Background(), y, x); err != nil && !errors.Is(err, ErrDraining) {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
