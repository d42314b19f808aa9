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
	"haspmv/internal/telemetry/tracing"
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
	// MaxEntries bounds how many prepared matrices stay resident; the
	// least recently used entry is evicted beyond it. Default 8.
	MaxEntries int
	// Batcher is applied to every entry's dynamic batcher.
	Batcher BatcherOptions
	// Source materializes matrices; defaults to DefaultSource(64M nnz).
	Source MatrixSource
	// Adapt, when non-nil, attaches an online repartitioning adapter to
	// every HASpMV entry: each flushed batch feeds the entry's adapter,
	// which rebalances the matrix's partition from measured per-core
	// spans. Baseline algorithms are served unchanged.
	Adapt *haspmvcore.AdapterOptions
	// Recorder, when non-nil, receives the adapter's epoch events
	// (rebalance, rollback) and an anomaly snapshot on every rollback,
	// and adapter epochs are stamped into the in-flight request traces
	// before their waiters release.
	Recorder *tracing.Recorder
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
	// Adapter is the entry's online repartitioning loop (nil unless
	// RegistryOptions.Adapt is set and the algorithm is HASpMV).
	Adapter *haspmvcore.Adapter
	// FromStore reports whether this entry was restored from the
	// prepared-matrix store rather than built by generate+Prepare (in
	// which case PrepareMs is the restore time).
	FromStore bool

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

// ShardPlan regenerates the matrix and returns the deterministic
// count-way shard plan the fleet router scatters against. Any worker
// (and the router itself) computes the identical plan from the same
// arguments, so the plan never needs to be distributed.
func (r *Registry) ShardPlan(name string, scale, count int) ([]shard.Desc, error) {
	if count < 1 {
		return nil, fmt.Errorf("server: shard count %d, want >= 1", count)
	}
	mat, err := r.opts.Source(name, scale)
	if err != nil {
		return nil, err
	}
	return shard.Plan(mat, count, nil)
}

// GetShard returns the resident entry serving shard index of a
// count-way split of (name, scale); the whole matrix when count <= 1.
// The shard's submatrix is sliced from the deterministic plan shared
// with ShardPlan, then prepared like any other matrix.
func (r *Registry) GetShard(ctx context.Context, name string, scale, index, count int) (*Entry, error) {
	if count < 1 {
		count = 1
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("server: shard index %d outside 0..%d", index, count-1)
	}
	key := ShardKey(name, scale, index, count)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrDraining
	}
	if e, ok := r.entries[key]; ok {
		r.seq++
		e.lastUsed = r.seq
		r.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		return e, nil
	}
	e := &Entry{Key: key, Name: name, Scale: scale, ready: make(chan struct{})}
	r.seq++
	e.lastUsed = r.seq
	r.entries[key] = e
	evict := r.evictLockedOver(r.opts.MaxEntries)
	gServeCached.Set(int64(len(r.entries)))
	r.mu.Unlock()
	for _, old := range evict {
		// Drain evicted batchers off the request path; in-flight Submits
		// finish, later ones see ErrDraining and retry via a fresh Get.
		// The mmap window (restored entries) unmaps only after the drain,
		// when no kernel can still read it.
		go func(old *Entry) {
			old.Batcher.Close()
			old.closeFile()
		}(old)
		cServeEvictions.Add(1)
	}

	var prep exec.Prepared
	var prepMs float64
	var err error
	if r.opts.StoreDir != "" {
		// A spill for this key may still be in flight (the entry was just
		// evicted); wait for the file rather than re-preparing.
		r.awaitSpill(key)
		prep = r.restoreFromStore(e, key)
	}
	if prep == nil {
		var mat *sparse.CSR
		mat, err = r.opts.Source(name, scale)
		if err == nil && count > 1 {
			// Slice this worker's shard from the deterministic plan. The full
			// matrix is released right after; only the submatrix stays
			// resident.
			var plan []shard.Desc
			if plan, err = shard.Plan(mat, count, nil); err == nil {
				e.Shard = plan[index]
				mat = shard.Slice(mat, e.Shard)
			}
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
		e.err = err
		r.mu.Lock()
		delete(r.entries, key)
		gServeCached.Set(int64(len(r.entries)))
		r.mu.Unlock()
		close(e.ready)
		return nil, err
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
	bopts := r.opts.Batcher
	if r.opts.Adapt != nil {
		if hp, ok := prep.(*haspmvcore.Prepared); ok {
			ad := haspmvcore.NewAdapter(hp, *r.opts.Adapt)
			e.Adapter = ad
			// The adapter observes each flush pre-release, so its epoch
			// decision lands in the flush's traces.
			bopts.Observer = &adapterObserver{ad: ad, rec: r.opts.Recorder, matrix: key}
		}
	}
	e.Batcher = NewBatcher(prep, bopts)
	r.mu.Unlock()
	cServePrepares.Add(1)
	if r.opts.StoreDir != "" && !e.FromStore {
		r.startSpill(e)
	}
	close(e.ready)
	return e, nil
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
		e.Batcher.Close()
		e.closeFile()
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

// closeFile releases the entry's mmap window, if any. Only safe after
// the entry's batcher has drained (no kernel reads the window anymore).
func (e *Entry) closeFile() {
	if e.file != nil {
		e.file.Close()
		e.file = nil
	}
}

// adapterObserver feeds each flush to the entry's adapter and stamps
// the resulting epoch decision into the flush's traces before their
// waiters release. Epoch *moves* (rebalance, rollback) additionally land
// in the flight recorder's event ring; a rollback — the adapter
// admitting it made things worse — is an anomaly, so it snapshots the
// recorder. It runs on the dispatcher goroutine, so the field diffs need
// no synchronization.
type adapterObserver struct {
	ad     *haspmvcore.Adapter
	rec    *tracing.Recorder
	matrix string

	lastRebalances, lastRollbacks int64
}

func (o *adapterObserver) ObserveFlush(traces []*tracing.Trace) {
	o.ad.AfterMultiply()
	st := o.ad.Stats()
	event := ""
	switch {
	case st.Rollbacks > o.lastRollbacks:
		event = "rollback"
	case st.Rebalances > o.lastRebalances:
		event = "rebalance"
	}
	o.lastRollbacks, o.lastRebalances = st.Rollbacks, st.Rebalances
	for _, tr := range traces {
		tr.AdapterEpoch = st.Epochs
		tr.AdapterEvent = event
	}
	if event != "" && o.rec != nil {
		// Epoch moves are rare (at most one per adapter epoch), so the
		// event allocation stays off the steady-state flush path.
		o.rec.RecordEvent(&tracing.Event{Time: time.Now(), Kind: event, Matrix: o.matrix})
		if event == "rollback" {
			o.rec.Anomaly("adapter-rollback")
		}
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
			if e.err != nil || e.Batcher == nil {
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

// Entries snapshots the resident entries (ready ones only), sorted by
// key for deterministic listings.
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	var out []*Entry
	for _, e := range r.entries {
		select {
		case <-e.ready:
			if e.err == nil {
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
		if e.Batcher == nil {
			continue
		}
		wg.Add(1)
		go func(e *Entry) {
			defer wg.Done()
			e.Batcher.Close()
			e.closeFile()
		}(e)
	}
	wg.Wait()
	// Drain in-flight store writes so a restart finds complete files.
	r.spills.Wait()
}
