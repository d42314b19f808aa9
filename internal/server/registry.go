package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"haspmv/internal/amp"
	haspmvcore "haspmv/internal/core"
	"haspmv/internal/exec"
	"haspmv/internal/fleet/shard"
	"haspmv/internal/gen"
	"haspmv/internal/sparse"
	"haspmv/internal/store"
	"haspmv/internal/telemetry"
)

var (
	cServePrepares  = telemetry.NewCounter("serve_prepares")
	cServeEvictions = telemetry.NewCounter("serve_cache_evictions")
	gServeCached    = telemetry.NewGauge("serve_cached_matrices")
	cStoreRestores  = telemetry.NewCounter("serve_store_restores")
	cStoreSpills    = telemetry.NewCounter("serve_store_spills")
	cStoreMisses    = telemetry.NewCounter("serve_store_misses")
	cStoreVerifyErr = telemetry.NewCounter("serve_store_verify_fails")
)

// Registry errors. The HTTP layer maps ErrUnknownMatrix to 404 and
// ErrMatrixTooLarge to 413.
var (
	ErrUnknownMatrix  = errors.New("server: unknown matrix")
	ErrMatrixTooLarge = errors.New("server: matrix too large")
)

// MatrixSource materializes a matrix for a registry key. The default
// source generates one of the Table II representative matrices at the
// requested scale divisor.
type MatrixSource func(name string, scale int) (*sparse.CSR, error)

// DefaultSource builds the representative-matrix source with an nnz
// budget: requests whose published size divided by scale exceeds maxNNZ
// are rejected with ErrMatrixTooLarge before any generation work.
func DefaultSource(maxNNZ int) MatrixSource {
	return func(name string, scale int) (*sparse.CSR, error) {
		ri, ok := gen.RepresentativeInfo(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownMatrix, name)
		}
		if maxNNZ > 0 && ri.PaperNNZ/scale > maxNNZ {
			return nil, fmt.Errorf("%w: %s@%d has ~%d nonzeros, limit %d",
				ErrMatrixTooLarge, name, scale, ri.PaperNNZ/scale, maxNNZ)
		}
		return gen.Representative(name, scale), nil
	}
}

// RegistryOptions configures the prepared-matrix cache.
type RegistryOptions struct {
	// MaxEntries bounds how many prepared matrices and shard plans stay
	// resident; the least recently used entry is evicted beyond it.
	// Default 8.
	MaxEntries int
	// Batcher is applied to every entry's dynamic batcher.
	Batcher BatcherOptions
	// Source materializes matrices; defaults to DefaultSource(64M nnz).
	Source MatrixSource
	// StoreDir, when set, backs the LRU with the prepared-matrix store:
	// every successful HASpMV build is written through to
	// StoreDir/<key>.hps (async, atomic rename), and a cold Get loads
	// the file by mmap and restores in milliseconds instead of
	// re-running generate+Prepare — eviction effectively spills to disk.
	// The payload checksum sweep runs behind the restore (see
	// restoreFromStore); structural corruption still misses eagerly.
	// Files from another algorithm, machine or format version are
	// ignored (and overwritten by the next write-through).
	StoreDir string
}

func (o RegistryOptions) withDefaults() RegistryOptions {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 8
	}
	if o.Source == nil {
		o.Source = DefaultSource(64 << 20)
	}
	return o
}

// Entry is one resident matrix: the prepared handle, its dynamic
// batcher, and enough shape information for the HTTP layer.
type Entry struct {
	Key        string
	Name       string
	Scale      int
	Rows, Cols int
	NNZ        int
	PrepareMs  float64
	Batcher    *Batcher
	Prep       exec.Prepared
	// Shard describes which row-shard of the matrix this entry serves
	// (Shard.Count <= 1 means the whole matrix). For a shard entry,
	// Rows/Cols/NNZ describe the sliced submatrix: Rows covers the
	// shard's owned row range and Cols its column window, so the HTTP
	// layer validates the router's sliced x against Cols as usual.
	Shard shard.Desc
	// FromStore reports whether this entry was restored from the
	// prepared-matrix store rather than built by generate+Prepare (in
	// which case PrepareMs is the restore time).
	FromStore bool

	// plan and slices are a plan entry's payload (see loadPlan): the
	// count-way shard plan of the matrix and the shard submatrices no
	// shard build has taken yet. A plan entry has no batcher.
	plan   []shard.Desc
	slices []*sparse.CSR

	ready    chan struct{}
	err      error
	lastUsed int64
	// file pins the mmap window a restored entry's kernels read from;
	// closed after the batcher drains on evict or registry close.
	file *store.File
}

// Registry caches prepared matrices behind an LRU with single-flight
// deduplication: concurrent requests for the same key share one
// generate+Prepare, and a failed build is forgotten so the next request
// retries instead of serving a cached error.
type Registry struct {
	machine *amp.Machine
	alg     exec.Algorithm
	opts    RegistryOptions

	mu      sync.Mutex
	seq     int64
	closed  bool
	entries map[string]*Entry

	// spilling tracks in-flight store writes by key: a cold Get for a
	// key whose write-through is still running waits for the file
	// instead of re-preparing — the no-double-Prepare guarantee under
	// capacity thrash. spills lets Close drain all writers.
	spillMu  sync.Mutex
	spilling map[string]chan struct{}
	spills   sync.WaitGroup
}

// NewRegistry builds an empty registry serving matrices prepared by alg
// for the given machine model.
func NewRegistry(m *amp.Machine, alg exec.Algorithm, opts RegistryOptions) *Registry {
	return &Registry{
		machine:  m,
		alg:      alg,
		opts:     opts.withDefaults(),
		entries:  make(map[string]*Entry),
		spilling: make(map[string]chan struct{}),
	}
}

// storePath maps a cache key to its store file. Keys contain '@', '#'
// and '/' (shard keys); anything a filesystem might object to becomes
// '_' — a collision just means the key check at load misses and the
// entry rebuilds.
func (r *Registry) storePath(key string) string {
	name := make([]byte, 0, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_', c == '@', c == '#':
			name = append(name, c)
		default:
			name = append(name, '_')
		}
	}
	return filepath.Join(r.opts.StoreDir, string(name)+".hps")
}

// Key is the registry's cache key format.
func Key(name string, scale int) string { return fmt.Sprintf("%s@%d", name, scale) }

// ShardKey is the cache key of one row-shard of a matrix. count <= 1
// collapses to the whole-matrix Key.
func ShardKey(name string, scale, index, count int) string {
	if count <= 1 {
		return Key(name, scale)
	}
	return fmt.Sprintf("%s@%d#%d/%d", name, scale, index, count)
}

// Get returns the resident entry for (name, scale), building it if
// necessary. Exactly one caller runs the build; the rest wait on it (or
// give up when ctx ends — the build itself continues and is cached).
func (r *Registry) Get(ctx context.Context, name string, scale int) (*Entry, error) {
	return r.GetShard(ctx, name, scale, 0, 1)
}

// ShardPlan returns the deterministic count-way shard plan the fleet
// router scatters against, computed once per (name, scale, count). Any
// worker (and the router itself) computes the identical plan from the
// same arguments, so the plan never needs to be distributed.
func (r *Registry) ShardPlan(name string, scale, count int) ([]shard.Desc, error) {
	if count < 1 {
		return nil, fmt.Errorf("server: shard count %d, want >= 1", count)
	}
	pe, err := r.loadPlan(name, scale, count)
	if err != nil {
		return nil, err
	}
	return append([]shard.Desc(nil), pe.plan...), nil
}

// planKey is the cache key of the count-way shard plan of a matrix.
func planKey(name string, scale, count int) string {
	return fmt.Sprintf("%s/%d", Key(name, scale), count)
}

// loadPlan returns the plan entry of the count-way plan of (name,
// scale), building it once: the first caller materializes the matrix,
// plans it and (for count > 1) slices every shard; concurrent and later
// callers share that result. The entry lives in the same LRU as the
// prepared matrices, so the slices no shard build has taken are evicted
// with it.
func (r *Registry) loadPlan(name string, scale, count int) (*Entry, error) {
	e, build, err := r.lookup(context.Background(), planKey(name, scale, count), name, scale)
	if !build {
		return e, err
	}
	mat, err := r.opts.Source(name, scale)
	var plan []shard.Desc
	if err == nil {
		plan, err = shard.Plan(mat, count, nil)
	}
	if err != nil {
		return nil, r.fail(e, err)
	}
	e.Rows, e.Cols, e.NNZ = mat.Rows, mat.Cols, mat.NNZ()
	e.plan = plan
	if count > 1 {
		e.slices = make([]*sparse.CSR, count)
		for i, d := range plan {
			e.slices[i] = shard.Slice(mat, d)
		}
	}
	close(e.ready)
	return e, nil
}

// shardMatrix returns shard index of the count-way plan of (name,
// scale) and its submatrix: the plan's slice on the shard's first
// build, a fresh slice of a regenerated matrix when an earlier build
// already took it (the shard entry was evicted since).
func (r *Registry) shardMatrix(name string, scale, index, count int) (shard.Desc, *sparse.CSR, error) {
	pe, err := r.loadPlan(name, scale, count)
	if err != nil {
		return shard.Desc{}, nil, err
	}
	d := pe.plan[index]
	r.mu.Lock()
	mat := pe.slices[index]
	pe.slices[index] = nil
	r.mu.Unlock()
	if mat == nil {
		if mat, err = r.opts.Source(name, scale); err != nil {
			return d, nil, err
		}
		mat = shard.Slice(mat, d)
	}
	return d, mat, nil
}

// GetShard returns the resident entry serving shard index of a
// count-way split of (name, scale); the whole matrix when count <= 1.
// The shard's submatrix comes from the plan entry shared with
// ShardPlan, then is prepared like any other matrix.
func (r *Registry) GetShard(ctx context.Context, name string, scale, index, count int) (*Entry, error) {
	if count < 1 {
		count = 1
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("server: shard index %d outside 0..%d", index, count-1)
	}
	key := ShardKey(name, scale, index, count)
	e, build, err := r.lookup(ctx, key, name, scale)
	if !build {
		return e, err
	}
	var prep exec.Prepared
	var prepMs float64
	if r.opts.StoreDir != "" {
		// A spill for this key may still be in flight (the entry was just
		// evicted); wait for the file rather than re-preparing.
		r.awaitSpill(key)
		prep = r.restoreFromStore(e, key)
	}
	if prep == nil {
		var mat *sparse.CSR
		if count > 1 {
			e.Shard, mat, err = r.shardMatrix(name, scale, index, count)
		} else {
			mat, err = r.opts.Source(name, scale)
		}
		if err == nil {
			t0 := time.Now()
			prep, err = r.alg.Prepare(r.machine, mat)
			prepMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		if err == nil {
			e.Rows, e.Cols, e.NNZ = mat.Rows, mat.Cols, mat.NNZ()
			e.PrepareMs = prepMs
		}
	}
	if err != nil {
		return nil, r.fail(e, err)
	}
	e.Prep = prep
	r.mu.Lock()
	if r.closed {
		// The registry shut down while we were building: don't start a
		// batcher nobody will drain.
		delete(r.entries, key)
		r.mu.Unlock()
		e.err = ErrDraining
		e.closeFile()
		close(e.ready)
		return nil, ErrDraining
	}
	e.Batcher = NewBatcher(prep, r.opts.Batcher)
	r.mu.Unlock()
	cServePrepares.Add(1)
	if r.opts.StoreDir != "" && !e.FromStore {
		r.startSpill(e)
	}
	close(e.ready)
	return e, nil
}

// lookup is the registry's single flight. It returns the entry for key
// (of matrix name at scale), waiting for its build (or until ctx ends —
// the build itself continues and is cached), or, when key is absent,
// inserts a new entry that the caller must build (build is true) and
// then either close its ready channel or hand to fail. The new entry
// counts against MaxEntries at once: least recently used ready entries
// beyond it are evicted and drained off the request path.
func (r *Registry) lookup(ctx context.Context, key, name string, scale int) (e *Entry, build bool, err error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, false, ErrDraining
	}
	r.seq++
	if e, ok := r.entries[key]; ok {
		e.lastUsed = r.seq
		r.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			return nil, false, e.err
		}
		return e, false, nil
	}
	e = &Entry{Key: key, Name: name, Scale: scale, ready: make(chan struct{}), lastUsed: r.seq}
	r.entries[key] = e
	evict := r.evictLockedOver(r.opts.MaxEntries)
	gServeCached.Set(int64(len(r.entries)))
	r.mu.Unlock()
	for _, old := range evict {
		// In-flight Submits finish, later ones see ErrDraining and retry
		// via a fresh Get.
		go old.drain()
		cServeEvictions.Add(1)
	}
	return e, true, nil
}

// fail ends e's failed build: the entry is forgotten, so the next
// request retries instead of serving a cached error, and its waiters
// see err.
func (r *Registry) fail(e *Entry, err error) error {
	e.err = err
	r.mu.Lock()
	delete(r.entries, e.Key)
	gServeCached.Set(int64(len(r.entries)))
	r.mu.Unlock()
	close(e.ready)
	return err
}

// storeExtra is the annotation block a spilled entry carries so a
// restore can rebuild the Entry fields and refuse files written for a
// different key or algorithm.
type storeExtra struct {
	Key   string
	Alg   string
	Name  string
	Scale int
	Shard *shard.Desc `json:",omitempty"`
}

// restoreFromStore tries to serve key from the prepared-matrix store,
// filling e and returning the restored prep on success. Any failure —
// no file, corrupt structure, wrong version, wrong algorithm or machine
// — is a miss: the caller falls back to generate+Prepare (whose
// write-through then replaces the unusable file).
//
// The load is verify-behind (store.LoadAsync): the file's structure —
// header, meta and chunk-table checksums, section bounds — is proven
// before the entry serves, but the payload checksum sweep (the only
// full-file pass, and the bulk of a synchronous Load) runs on a
// background goroutine. If that sweep fails, watchVerify drops the
// entry so the next Get rebuilds from scratch; responses served in the
// window between restore and the failure may have read corrupt array
// values. That window is the price of the cold-start target — a
// torn-payload file on a healthy disk requires external interference,
// and the sweep closes it within milliseconds.
func (r *Registry) restoreFromStore(e *Entry, key string) exec.Prepared {
	t0 := time.Now()
	f, err := store.LoadAsync(r.storePath(key))
	if err != nil {
		cStoreMisses.Add(1)
		return nil
	}
	var ex storeExtra
	if raw, ok := f.Extra["entry"]; ok {
		_ = json.Unmarshal([]byte(raw), &ex)
	}
	if ex.Key != key || ex.Alg != r.alg.Name() {
		f.Close()
		cStoreMisses.Add(1)
		return nil
	}
	prep, err := haspmvcore.RestorePrepared(r.machine, f.Snap)
	if err != nil {
		f.Close()
		cStoreMisses.Add(1)
		return nil
	}
	e.Rows, e.Cols = f.Snap.Meta.Rows, f.Snap.Meta.Cols
	e.NNZ = f.Snap.RowPtr[f.Snap.Meta.Rows]
	if ex.Shard != nil {
		e.Shard = *ex.Shard
	}
	e.PrepareMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	e.FromStore = true
	e.file = f
	cStoreRestores.Add(1)
	go r.watchVerify(e, f)
	return prep
}

// watchVerify waits out a restored entry's background payload-checksum
// sweep. On failure it removes the provably-corrupt file (so the next
// Get misses instead of re-restoring the same bad payload), drops the
// entry from the cache and drains its batcher; the rebuild's
// write-through then lays down a fresh file. Exactly one of watchVerify
// and eviction drains the entry: whichever removes it from the map
// under r.mu.
func (r *Registry) watchVerify(e *Entry, f *store.File) {
	if f.Verified() == nil {
		return
	}
	// The entry may still be mid-build in GetShard; its batcher exists
	// only once ready closes (and err covers the registry-closed path).
	<-e.ready
	if e.err != nil {
		return
	}
	cStoreVerifyErr.Add(1)
	// File first, then map: a racing Get either finds this entry (and
	// retries after the drain) or misses the store — never the corrupt
	// file again.
	os.Remove(r.storePath(e.Key))
	r.mu.Lock()
	owned := r.entries[e.Key] == e
	if owned {
		delete(r.entries, e.Key)
		gServeCached.Set(int64(len(r.entries)))
	}
	r.mu.Unlock()
	if owned {
		e.drain()
	}
}

// startSpill writes the entry through to the store on a tracked
// goroutine. The snapshot aliases the instance's immutable streams
// (Repartition only moves boundaries), so the write races nothing.
func (r *Registry) startSpill(e *Entry) {
	hp, ok := e.Prep.(*haspmvcore.Prepared)
	if !ok {
		return // baseline algorithms have no snapshot to persist
	}
	done := make(chan struct{})
	r.spillMu.Lock()
	if _, inFlight := r.spilling[e.Key]; inFlight {
		r.spillMu.Unlock()
		return
	}
	r.spilling[e.Key] = done
	r.spillMu.Unlock()
	r.spills.Add(1)
	go func() {
		defer func() {
			r.spillMu.Lock()
			delete(r.spilling, e.Key)
			r.spillMu.Unlock()
			close(done)
			r.spills.Done()
		}()
		ex := storeExtra{Key: e.Key, Alg: r.alg.Name(), Name: e.Name, Scale: e.Scale}
		if e.Shard.Count > 1 {
			sh := e.Shard
			ex.Shard = &sh
		}
		raw, err := json.Marshal(ex)
		if err != nil {
			return
		}
		extra := map[string]string{
			"entry":      string(raw),
			"prepare_ms": strconv.FormatFloat(e.PrepareMs, 'g', -1, 64),
		}
		if store.Write(r.storePath(e.Key), hp.Snapshot(), extra) == nil {
			cStoreSpills.Add(1)
		}
	}()
}

// awaitSpill blocks until no store write for key is in flight.
func (r *Registry) awaitSpill(key string) {
	r.spillMu.Lock()
	done, ok := r.spilling[key]
	r.spillMu.Unlock()
	if ok {
		<-done
	}
}

// drain closes the batcher of a removed entry (plan entries have none)
// and then its mmap window: the window unmaps only after the drain, when
// no kernel can still read it.
func (e *Entry) drain() {
	if e.Batcher != nil {
		e.Batcher.Close()
	}
	e.closeFile()
}

// closeFile releases the entry's mmap window, if any. Only safe after
// the entry's batcher has drained (no kernel reads the window anymore).
func (e *Entry) closeFile() {
	if e.file != nil {
		e.file.Close()
		e.file = nil
	}
}

// evictLockedOver removes least-recently-used *ready* entries until at
// most limit remain, returning the removed entries for the caller to
// drain outside the lock. Entries still being built are never evicted.
func (r *Registry) evictLockedOver(limit int) []*Entry {
	var out []*Entry
	for len(r.entries) > limit {
		var victim *Entry
		for _, e := range r.entries {
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if e.err != nil {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return out
		}
		delete(r.entries, victim.Key)
		out = append(out, victim)
	}
	return out
}

// Entries snapshots the resident matrix entries (ready ones, without
// the shard plans), sorted by key for deterministic listings.
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	var out []*Entry
	for _, e := range r.entries {
		select {
		case <-e.ready:
			if e.err == nil && e.Batcher != nil {
				out = append(out, e)
			}
		default:
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Close drains every resident batcher, blocking until all dispatchers
// have exited. The registry must not be used afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	var all []*Entry
	for _, e := range r.entries {
		all = append(all, e)
	}
	r.entries = make(map[string]*Entry)
	gServeCached.Set(0)
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, e := range all {
		select {
		case <-e.ready:
		default:
			continue // build in flight; its Get sees closed and never starts a batcher
		}
		wg.Add(1)
		go func(e *Entry) {
			defer wg.Done()
			e.drain()
		}(e)
	}
	wg.Wait()
	// Drain in-flight store writes so a restart finds complete files.
	r.spills.Wait()
}
