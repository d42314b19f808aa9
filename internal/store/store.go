// Package store persists fully Prepared matrices to disk and loads
// them back by mmap, so a serving process cold-starts from the file in
// page-fault time instead of re-running Prepare's O(nnz) analysis
// sweeps.
//
// File layout (all integers little-endian):
//
//	[ 0:64]   header — magic "HASPMVPS", version, endian marker,
//	          meta length, chunk count, payload length, meta CRC,
//	          chunk-table CRC, reserved zeros, header CRC
//	[64:..]   meta — JSON fileMeta (scalars + section directory),
//	          zero-padded to 8 bytes
//	[..:..]   chunk table — one CRC32-C per 1MB payload chunk,
//	          zero-padded to 8 bytes
//	[..:..]   payload — the flat arrays, each section 8-aligned
//
// Every byte of the file is covered by some checksum or by an explicit
// must-be-zero padding rule, so a file Load accepts re-serializes to
// the identical bytes — the round-trip invariant the fuzz target
// leans on. Payload chunks verify in parallel at load; on 64-bit
// little-endian hosts the verified window is then aliased in place
// (see alias.go) and the kernels fault pages in on first touch.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"

	"haspmv/internal/core"
	"haspmv/internal/exec"
	"haspmv/internal/kernel"
)

// Version is the on-disk format version. Bump it on any layout or
// semantic change; Load rejects every other version with ErrVersion,
// and the CI store cache keys on it so stale caches die with the bump.
const Version = 6

const (
	headerSize = 64
	chunkSize  = 1 << 20
	segBytes   = 12 // kernel.Segment: 3×int32

	endianMark = 0x01020304
)

var magic = [8]byte{'H', 'A', 'S', 'P', 'M', 'V', 'P', 'S'}

// Sentinel errors, matchable with errors.Is through the wrapped
// detail Load returns.
var (
	// ErrFormat: the file is not a prepared-matrix store file, or its
	// structure (sizes, padding, section directory) is inconsistent.
	ErrFormat = errors.New("store: not a valid prepared-matrix file")
	// ErrVersion: the file is a store file but written by a different
	// format version.
	ErrVersion = errors.New("store: unsupported format version")
	// ErrChecksum: a CRC over the header, meta, chunk table or a
	// payload chunk does not match.
	ErrChecksum = errors.New("store: checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one flat array's entry in the meta directory. Off is the
// byte offset from the start of the payload (8-aligned), Len the
// element count.
type section struct {
	Name string
	Elem string
	Off  int64
	Len  int64
}

// fileMeta is the JSON block after the header: the snapshot scalars,
// the section directory, and the caller's opaque annotations.
type fileMeta struct {
	FormatVersion int
	Meta          core.SnapshotMeta
	Sections      []section
	Extra         map[string]string `json:",omitempty"`
}

// elemWidth maps a section element tag to its byte width.
var elemWidth = map[string]int64{
	"i64":   8,
	"u32":   4,
	"f64":   8,
	"seg12": segBytes,
}

// rawSection pairs a directory entry with its encoded bytes during
// writing.
type rawSection struct {
	section
	bytes []byte
}

// sectionsOf lists the snapshot's non-nil arrays in fixed order with
// their encoded bytes and 8-aligned payload offsets. Nil slices get no
// section (presence round-trips: absent section loads as nil, a
// present empty one as a non-nil empty slice).
func sectionsOf(s *core.PreparedSnapshot) ([]rawSection, int64) {
	var secs []rawSection
	off := int64(0)
	add := func(name, elem string, b []byte, n int, present bool) {
		if !present {
			return
		}
		off = align8(off)
		secs = append(secs, rawSection{section{name, elem, off, int64(n)}, b})
		off += int64(len(b))
	}
	add("rowptr", "i64", bytesOfInts(s.RowPtr), len(s.RowPtr), s.RowPtr != nil)
	add("colidx", "i64", bytesOfInts(s.ColIdx), len(s.ColIdx), s.ColIdx != nil)
	add("val", "f64", bytesOfF64(s.Val), len(s.Val), s.Val != nil)
	add("hperm", "i64", bytesOfInts(s.HPerm), len(s.HPerm), s.HPerm != nil)
	add("hrowptr", "i64", bytesOfInts(s.HRowPtr), len(s.HRowPtr), s.HRowPtr != nil)
	add("hrowbeginnnz", "i64", bytesOfInts(s.HRowBeginNNZ), len(s.HRowBeginNNZ), s.HRowBeginNNZ != nil)
	add("emptyrows", "i64", bytesOfInts(s.EmptyRows), len(s.EmptyRows), s.EmptyRows != nil)
	add("cs", "i64", bytesOfInts(s.CS), len(s.CS), s.CS != nil)
	add("col32", "u32", bytesOfU32(s.Col32), len(s.Col32), s.Col32 != nil)
	add("segs", "seg12", bytesOfSegs(s.Segs), len(s.Segs), s.Segs != nil)
	return secs, off
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// chunkSummer accumulates one CRC32-C per chunkSize window of the
// bytes streamed through it.
type chunkSummer struct {
	sums []uint32
	cur  uint32
	fill int
}

func (c *chunkSummer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		take := chunkSize - c.fill
		if take > len(p) {
			take = len(p)
		}
		c.cur = crc32.Update(c.cur, castagnoli, p[:take])
		c.fill += take
		p = p[take:]
		if c.fill == chunkSize {
			c.sums = append(c.sums, c.cur)
			c.cur, c.fill = 0, 0
		}
	}
	return n, nil
}

func (c *chunkSummer) finish() []uint32 {
	if c.fill > 0 {
		c.sums = append(c.sums, c.cur)
		c.cur, c.fill = 0, 0
	}
	return c.sums
}

// buildHeader assembles the 64-byte header for the given component
// digests and lengths.
func buildHeader(metaLen, chunkCount int, payloadLen int64, metaCRC, tableCRC uint32) [headerSize]byte {
	var h [headerSize]byte
	copy(h[0:8], magic[:])
	binary.LittleEndian.PutUint32(h[8:12], Version)
	binary.LittleEndian.PutUint32(h[12:16], endianMark)
	binary.LittleEndian.PutUint32(h[16:20], uint32(metaLen))
	binary.LittleEndian.PutUint32(h[20:24], uint32(chunkCount))
	binary.LittleEndian.PutUint64(h[24:32], uint64(payloadLen))
	binary.LittleEndian.PutUint32(h[32:36], metaCRC)
	binary.LittleEndian.PutUint32(h[36:40], tableCRC)
	binary.LittleEndian.PutUint32(h[60:64], crc32.Checksum(h[0:60], castagnoli))
	return h
}

// Encode serializes a snapshot to the full file image in memory. Write
// streams the same bytes to disk; tests and the fuzz target use Encode
// to compare images without touching the filesystem.
func Encode(snap *core.PreparedSnapshot, extra map[string]string) ([]byte, error) {
	secs, payloadLen := sectionsOf(snap)
	dir := make([]section, len(secs))
	for i, s := range secs {
		dir[i] = s.section
	}
	metaJS, err := json.Marshal(fileMeta{
		FormatVersion: Version,
		Meta:          snap.Meta,
		Sections:      dir,
		Extra:         extra,
	})
	if err != nil {
		return nil, fmt.Errorf("store: encoding meta: %w", err)
	}
	metaLen := len(metaJS)
	chunkCount := int((payloadLen + chunkSize - 1) / chunkSize)

	metaEnd := align8(headerSize + int64(metaLen))
	tableOff := metaEnd
	tableEnd := align8(tableOff + 4*int64(chunkCount))
	payloadOff := tableEnd
	total := payloadOff + payloadLen

	buf := make([]byte, total)
	copy(buf[headerSize:], metaJS)

	// Payload: sections at their 8-aligned offsets; the gaps stay zero
	// and are covered by the chunk CRCs like every other payload byte.
	for _, s := range secs {
		copy(buf[payloadOff+s.Off:], s.bytes)
	}
	var summer chunkSummer
	summer.Write(buf[payloadOff:total])
	sums := summer.finish()
	table := buf[tableOff : tableOff+4*int64(chunkCount)]
	for i, c := range sums {
		binary.LittleEndian.PutUint32(table[4*i:], c)
	}
	hdr := buildHeader(metaLen, chunkCount, payloadLen,
		crc32.Checksum(metaJS, castagnoli),
		crc32.Checksum(table, castagnoli))
	copy(buf[:headerSize], hdr[:])
	return buf, nil
}

// Write serializes the snapshot to path atomically: the image is
// written to a temp file in the same directory, synced, then renamed
// over path — a concurrent Load sees either the old complete file or
// the new one, never a torn write. extra is an opaque annotation map
// round-tripped through the meta block (the server registry stores its
// cache key and algorithm name there).
func Write(path string, snap *core.PreparedSnapshot, extra map[string]string) error {
	buf, err := Encode(snap, extra)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".haspmv-store-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if _, err := f.Write(buf); err != nil {
		return fail(err)
	}
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// File is a loaded store file. Snap's slices alias the mmap window on
// zero-copy platforms — the File must stay open for as long as any
// Prepared restored from Snap is in use.
type File struct {
	Snap  *core.PreparedSnapshot
	Extra map[string]string
	Path  string

	data    []byte
	closeFn func() error

	// verifyDone is non-nil for LoadAsync files: closed when the
	// background payload sweep finishes, with its result in verifyErr.
	verifyDone chan struct{}
	verifyErr  error
}

// Verified blocks until the payload checksum sweep has finished and
// returns its result. For Load files the sweep already ran
// synchronously and Verified returns nil immediately; for LoadAsync
// files it is the barrier between "serving from unverified bytes" and
// "the whole image is known intact".
func (f *File) Verified() error {
	if f.verifyDone != nil {
		<-f.verifyDone
		return f.verifyErr
	}
	return nil
}

// Close unmaps the file window. On zero-copy platforms every slice
// reachable from Snap (and from any Prepared restored from it) becomes
// invalid. A pending background verification is waited out first — the
// sweep must not read an unmapped window.
func (f *File) Close() error {
	// verifyDone is set once before the File escapes LoadAsync and never
	// mutated, so waiting here races nothing (Verified may run
	// concurrently from a watcher goroutine).
	if f.verifyDone != nil {
		<-f.verifyDone
	}
	f.Snap = nil
	f.data = nil
	if f.closeFn == nil {
		return nil
	}
	fn := f.closeFn
	f.closeFn = nil
	return fn()
}

// Load maps the file at path, verifies every checksum (payload chunks
// in parallel), and reconstructs the snapshot with the arrays aliasing
// the verified window. It returns ErrFormat, ErrVersion or ErrChecksum
// (wrapped with detail) on any malformed input; it never panics on
// arbitrary bytes.
func Load(path string) (*File, error) {
	data, closeFn, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	snap, extra, derr := Decode(data)
	if derr != nil {
		closeFn()
		return nil, fmt.Errorf("store: loading %s: %w", path, derr)
	}
	return &File{Snap: snap, Extra: extra, Path: path, data: data, closeFn: closeFn}, nil
}

// LoadAsync maps the file and runs every structural check eagerly —
// header, meta and chunk-table CRCs, canonical meta encoding, section
// bounds — but defers the payload chunk-CRC sweep (the only full-file
// pass) to a background goroutine. The caller may restore and serve
// immediately; Verified blocks on the sweep's result, and Close waits
// it out. The integrity window is narrow and explicit: until Verified
// returns, array *contents* (never structure) could be corrupt, so a
// serving cold start should check Verified once the first responses
// are in flight and drop the instance on error.
func LoadAsync(path string) (*File, error) {
	data, closeFn, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	snap, extra, pv, derr := decodeEager(data)
	if derr != nil {
		closeFn()
		return nil, fmt.Errorf("store: loading %s: %w", path, derr)
	}
	f := &File{Snap: snap, Extra: extra, Path: path, data: data, closeFn: closeFn,
		verifyDone: make(chan struct{})}
	go func() {
		defer close(f.verifyDone)
		if err := pv.verify(); err != nil {
			f.verifyErr = fmt.Errorf("store: loading %s: %w", path, err)
		}
	}()
	return f, nil
}

// Decode verifies and decodes a full file image. The returned
// snapshot's slices alias data on zero-copy platforms.
func Decode(data []byte) (*core.PreparedSnapshot, map[string]string, error) {
	snap, extra, pv, err := decodeEager(data)
	if err != nil {
		return nil, nil, err
	}
	if err := pv.verify(); err != nil {
		return nil, nil, err
	}
	return snap, extra, nil
}

// payloadVerifier is the deferred half of Decode: the payload
// chunk-CRC sweep, the only full-file pass of a load. Everything the
// section directory derives from (header, meta block, chunk table) is
// checksummed eagerly by decodeEager; this sweep only decides whether
// the payload bytes themselves are intact, so LoadAsync can run it
// behind the cold start.
type payloadVerifier struct {
	payload []byte
	table   []byte
	count   int64
}

func (pv payloadVerifier) verify() error {
	var badChunk atomic.Int64
	badChunk.Store(-1)
	exec.ParallelRanges(int(pv.count), int(pv.count), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			end := int64(i+1) * chunkSize
			if end > int64(len(pv.payload)) {
				end = int64(len(pv.payload))
			}
			sum := crc32.Checksum(pv.payload[int64(i)*chunkSize:end], castagnoli)
			if sum != binary.LittleEndian.Uint32(pv.table[4*i:]) {
				badChunk.CompareAndSwap(-1, int64(i))
				return
			}
		}
	})
	if c := badChunk.Load(); c >= 0 {
		return fmt.Errorf("%w: payload chunk %d (bytes %d..%d)", ErrChecksum, c, c*chunkSize, (c+1)*chunkSize)
	}
	return nil
}

// decodeEager runs every structural and metadata check of Decode —
// header, meta and chunk-table CRCs, canonical meta encoding, section
// directory bounds — and returns the snapshot plus the pending payload
// verifier. Nothing the returned snapshot's *shape* depends on is left
// unverified; only the payload array contents await pv.verify().
func decodeEager(data []byte) (*core.PreparedSnapshot, map[string]string, payloadVerifier, error) {
	var pv payloadVerifier
	if len(data) < headerSize {
		return nil, nil, pv, fmt.Errorf("%w: %d bytes, need at least a %d-byte header", ErrFormat, len(data), headerSize)
	}
	hdr := data[:headerSize]
	if [8]byte(hdr[0:8]) != magic {
		return nil, nil, pv, fmt.Errorf("%w: bad magic %q", ErrFormat, hdr[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[60:64]), crc32.Checksum(hdr[0:60], castagnoli); got != want {
		return nil, nil, pv, fmt.Errorf("%w: header crc %08x, want %08x", ErrChecksum, got, want)
	}
	if em := binary.LittleEndian.Uint32(hdr[12:16]); em != endianMark {
		return nil, nil, pv, fmt.Errorf("%w: endian marker %08x (big-endian writer?)", ErrFormat, em)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, nil, pv, fmt.Errorf("%w: file is format version %d, this build reads version %d — re-run Prepare to regenerate the store", ErrVersion, v, Version)
	}
	for _, b := range hdr[40:60] {
		if b != 0 {
			return nil, nil, pv, fmt.Errorf("%w: reserved header bytes not zero", ErrFormat)
		}
	}
	metaLen := int64(binary.LittleEndian.Uint32(hdr[16:20]))
	chunkCount := int64(binary.LittleEndian.Uint32(hdr[20:24]))
	payloadLen := int64(binary.LittleEndian.Uint64(hdr[24:32]))
	if payloadLen < 0 || payloadLen > int64(len(data)) {
		return nil, nil, pv, fmt.Errorf("%w: payload length %d in a %d-byte file", ErrFormat, payloadLen, len(data))
	}
	metaEnd := align8(headerSize + metaLen)
	tableOff := metaEnd
	tableEnd := align8(tableOff + 4*chunkCount)
	payloadOff := tableEnd
	if total := payloadOff + payloadLen; int64(len(data)) != total {
		return nil, nil, pv, fmt.Errorf("%w: file is %d bytes, layout needs %d (truncated or trailing garbage)", ErrFormat, len(data), total)
	}
	if want := (payloadLen + chunkSize - 1) / chunkSize; chunkCount != want {
		return nil, nil, pv, fmt.Errorf("%w: %d chunk checksums for a %d-byte payload, want %d", ErrFormat, chunkCount, payloadLen, want)
	}

	metaJS := data[headerSize : headerSize+metaLen]
	if got, want := binary.LittleEndian.Uint32(hdr[32:36]), crc32.Checksum(metaJS, castagnoli); got != want {
		return nil, nil, pv, fmt.Errorf("%w: meta crc %08x, want %08x", ErrChecksum, got, want)
	}
	table := data[tableOff : tableOff+4*chunkCount]
	if got, want := binary.LittleEndian.Uint32(hdr[36:40]), crc32.Checksum(table, castagnoli); got != want {
		return nil, nil, pv, fmt.Errorf("%w: chunk table crc %08x, want %08x", ErrChecksum, got, want)
	}
	// Alignment padding after the meta and table blocks is the only
	// region no CRC covers; requiring it zero keeps "accepted file"
	// equivalent to "byte-identical re-serialization".
	for _, b := range data[headerSize+metaLen : metaEnd] {
		if b != 0 {
			return nil, nil, pv, fmt.Errorf("%w: meta padding not zero", ErrFormat)
		}
	}
	for _, b := range data[tableOff+4*chunkCount : tableEnd] {
		if b != 0 {
			return nil, nil, pv, fmt.Errorf("%w: chunk table padding not zero", ErrFormat)
		}
	}

	payload := data[payloadOff:]
	pv = payloadVerifier{payload: payload, table: table, count: chunkCount}

	var fm fileMeta
	if err := json.Unmarshal(metaJS, &fm); err != nil {
		return nil, nil, pv, fmt.Errorf("%w: meta block: %v", ErrFormat, err)
	}
	if fm.FormatVersion != Version {
		return nil, nil, pv, fmt.Errorf("%w: meta declares format version %d, this build reads version %d", ErrVersion, fm.FormatVersion, Version)
	}
	// The format contract is "accepted file ⇔ byte-identical
	// re-serialization". json.Unmarshal is lenient (reordered keys,
	// unknown fields, whitespace), so require the meta block to be the
	// canonical encoding of what it decoded to.
	if canon, err := json.Marshal(fm); err != nil || !bytes.Equal(canon, metaJS) {
		return nil, nil, pv, fmt.Errorf("%w: meta block is not the canonical encoding", ErrFormat)
	}
	snap, err := decodeSections(fm, payload)
	if err != nil {
		return nil, nil, pv, err
	}
	return snap, fm.Extra, pv, nil
}

// decodeSections validates the section directory against the payload
// bounds and aliases (or copies, on non-zero-copy platforms) each
// array into a snapshot.
func decodeSections(fm fileMeta, payload []byte) (*core.PreparedSnapshot, error) {
	byName := make(map[string]section, len(fm.Sections))
	for _, s := range fm.Sections {
		w, ok := elemWidth[s.Elem]
		if !ok {
			return nil, fmt.Errorf("%w: section %q has unknown element type %q", ErrFormat, s.Name, s.Elem)
		}
		if s.Off < 0 || s.Off%8 != 0 || s.Len < 0 || s.Len > (int64(len(payload))-s.Off)/max(w, 1) {
			return nil, fmt.Errorf("%w: section %q [%d:+%d×%d] outside %d-byte payload", ErrFormat, s.Name, s.Off, s.Len, w, len(payload))
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrFormat, s.Name)
		}
		byName[s.Name] = s
	}
	sec := func(name, elem string) (b []byte, n int, present bool, err error) {
		s, ok := byName[name]
		if !ok {
			return nil, 0, false, nil
		}
		delete(byName, name)
		if s.Elem != elem {
			return nil, 0, false, fmt.Errorf("%w: section %q is %q, want %q", ErrFormat, name, s.Elem, elem)
		}
		return payload[s.Off : s.Off+s.Len*elemWidth[elem]], int(s.Len), true, nil
	}
	snap := &core.PreparedSnapshot{Meta: fm.Meta}
	var err error
	ints := func(dst *[]int, name string) {
		if err != nil {
			return
		}
		var b []byte
		var n int
		var ok bool
		if b, n, ok, err = sec(name, "i64"); ok && err == nil {
			*dst = nonNil(intsOfBytes(b, n), n)
		}
	}
	ints(&snap.RowPtr, "rowptr")
	ints(&snap.ColIdx, "colidx")
	ints(&snap.HPerm, "hperm")
	ints(&snap.HRowPtr, "hrowptr")
	ints(&snap.HRowBeginNNZ, "hrowbeginnnz")
	ints(&snap.EmptyRows, "emptyrows")
	ints(&snap.CS, "cs")
	if err != nil {
		return nil, err
	}
	if b, n, ok, e := sec("val", "f64"); e != nil {
		return nil, e
	} else if ok {
		snap.Val = nonNil(f64OfBytes(b, n), n)
	}
	if b, n, ok, e := sec("col32", "u32"); e != nil {
		return nil, e
	} else if ok {
		snap.Col32 = nonNil(u32OfBytes(b, n), n)
	}
	if b, n, ok, e := sec("segs", "seg12"); e != nil {
		return nil, e
	} else if ok {
		snap.Segs = nonNil(segsOfBytes(b, n), n)
	}
	for name := range byName {
		return nil, fmt.Errorf("%w: unknown section %q", ErrFormat, name)
	}
	return snap, nil
}

// nonNil keeps presence: a section that exists with zero elements
// restores as a non-nil empty slice (the decoders return nil for
// n == 0), so nil-vs-empty distinctions in the snapshot survive the
// round trip.
func nonNil[T any](s []T, n int) []T {
	if s == nil && n == 0 {
		return []T{}
	}
	return s
}

// Compile-time guard: the on-disk element width assumes this struct
// size (the zero-copy aliasing in alias.go reslices it in place).
var _ = [1]struct{}{}[segBytes-unsafe.Sizeof(kernel.Segment{})]
