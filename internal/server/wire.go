package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// This file is the only code that knows the /v1/multiply body format;
// the worker handler and the fleet router both go through it.
//
// Decoding runs one forward scan over the buffered body that handles the
// shape clients send: an object of the known keys, each at most once,
// exact lower-case names, escape-free ASCII strings and numbers in the
// strict JSON grammar, converted to the values encoding/json's strconv
// calls give (float.go does the floats in the same pass). Anything else
// — an escape, an unknown or differently-cased key, a duplicate, null,
// a number strconv rejects — falls back to json.Decoder on the same
// bytes, so every body gets exactly the values and the accept/reject
// decision that encoding/json gives it, error text included. Encoding
// writes the bytes json.Encoder would write, trailing newline included;
// a non-finite value, which JSON cannot carry, is an error naming its
// row.

// MultiplyRequest is the /v1/multiply request body.
type MultiplyRequest struct {
	Matrix    string    `json:"matrix"`
	Scale     int       `json:"scale"`
	X         []float64 `json:"x"`
	TimeoutMs int       `json:"timeout_ms"`
	// ShardIndex/ShardCount select one row-shard of a ShardCount-way
	// split (the fleet router's scatter path). Zero count (or 1) is a
	// whole-matrix request; x must then have the shard's column-window
	// width instead of the full column count.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

// Timeout returns timeout_ms as a duration, 0 when it is not positive.
// A value past the largest time.Duration saturates there instead of
// overflowing into an already-expired deadline. The worker and the
// router both bound a request by it.
func (r *MultiplyRequest) Timeout() time.Duration {
	ms := int64(r.TimeoutMs)
	switch {
	case ms <= 0:
		return 0
	case ms > math.MaxInt64/int64(time.Millisecond):
		return math.MaxInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// MultiplyResponse is the /v1/multiply response body.
type MultiplyResponse struct {
	Matrix  string    `json:"matrix"`
	Scale   int       `json:"scale"`
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	BatchNV int       `json:"batch_nv"`
	Y       []float64 `json:"y"`
	// Shard echo: which row range the fragment in Y covers (the gather
	// epilogue's sanity check). Present only on shard requests.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	Row0       int `json:"row0,omitempty"`
}

// maxPresize caps how much of a declared Content-Length is allocated
// before the bytes arrive, so a client cannot make the server reserve
// the whole MaxBodyBytes by declaring it and sending nothing.
const maxPresize = 32 << 20

// WireBuf holds one multiply's pooled buffers: the body bytes (the
// request read in, then the response encoded over it), x and y. Get one
// with GetWireBuf and return it with Release once nothing references
// its slices — for the worker, after the response is written, which is
// after Batcher.SubmitTraced has returned and so stopped touching x and
// y.
type WireBuf struct {
	body []byte
	x, y []float64
}

var wirePool = sync.Pool{New: func() any { return new(WireBuf) }}

// GetWireBuf takes a WireBuf from the pool.
func GetWireBuf() *WireBuf { return wirePool.Get().(*WireBuf) }

// Release returns wb to the pool.
func (wb *WireBuf) Release() { wirePool.Put(wb) }

// ReadBody reads r to EOF into wb's body buffer and returns the bytes,
// valid until the next use of wb. size is the declared length (-1 when
// unknown).
func (wb *WireBuf) ReadBody(r io.Reader, size int64) ([]byte, error) {
	b, err := ReadBody(wb.body[:0], r, size)
	wb.body = b
	return b, err
}

// ReadBody appends r's bytes up to EOF to dst, growing it once to the
// declared size (capped at maxPresize) when that is known.
func ReadBody(dst []byte, r io.Reader, size int64) ([]byte, error) {
	if size > 0 {
		if want := len(dst) + int(min(size, maxPresize)) + 1; cap(dst) < want {
			dst = append(make([]byte, 0, want), dst...)
		}
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Floats returns wb's y buffer resized to n. Its contents are stale.
func (wb *WireBuf) Floats(n int) []float64 {
	if cap(wb.y) < n {
		wb.y = make([]float64, n)
	}
	wb.y = wb.y[:n]
	return wb.y
}

// DecodeRequest decodes a request body into req, with req.X landing in
// wb's x buffer on the fast path.
func (wb *WireBuf) DecodeRequest(b []byte, req *MultiplyRequest) error {
	*req = MultiplyRequest{}
	s := scanner{b: b}
	if s.request(req, wb.x[:0], true) {
		if cap(req.X) > cap(wb.x) {
			wb.x = req.X
		}
		return nil
	}
	*req = MultiplyRequest{}
	return json.NewDecoder(bytes.NewReader(b)).Decode(req)
}

// DecodeRequestHeader decodes every request field but x, whose numbers
// are checked against the JSON grammar but never converted: what the
// router needs to route a body it forwards unchanged.
func DecodeRequestHeader(b []byte, req *MultiplyRequest) error {
	*req = MultiplyRequest{}
	s := scanner{b: b}
	if s.request(req, nil, false) {
		return nil
	}
	*req = MultiplyRequest{}
	// The outer X shadows the embedded one, so x is only syntax-checked.
	h := struct {
		*MultiplyRequest
		X json.RawMessage `json:"x"`
	}{MultiplyRequest: req}
	return json.NewDecoder(bytes.NewReader(b)).Decode(&h)
}

// DecodeResponse decodes a response body into resp, with resp.Y landing
// in wb's y buffer on the fast path.
func (wb *WireBuf) DecodeResponse(b []byte, resp *MultiplyResponse) error {
	*resp = MultiplyResponse{}
	s := scanner{b: b}
	if s.response(resp, wb.y[:0]) {
		if cap(resp.Y) > cap(wb.y) {
			wb.y = resp.Y
		}
		return nil
	}
	*resp = MultiplyResponse{}
	return json.NewDecoder(bytes.NewReader(b)).Decode(resp)
}

// EncodeResponse encodes resp over wb's body buffer (so any bytes
// ReadBody returned are dead afterwards) and returns the encoding.
func (wb *WireBuf) EncodeResponse(resp *MultiplyResponse) ([]byte, error) {
	b, err := appendResponse(wb.body[:0], resp)
	wb.body = b[:0]
	return b, err
}

// AppendRequest appends req's encoding to dst, leaving out zero
// timeout_ms and shard fields. x must be finite.
func AppendRequest(dst []byte, req *MultiplyRequest) ([]byte, error) {
	b := append(dst, `{"matrix":`...)
	b = appendString(b, req.Matrix)
	b = appendField(b, "scale", req.Scale)
	b = append(b, `,"x":`...)
	b, bad := appendFloats(b, req.X)
	if bad >= 0 {
		return dst, fmt.Errorf("x[%d] is %v, which JSON cannot represent", bad, req.X[bad])
	}
	b = appendNonZero(b, "timeout_ms", req.TimeoutMs)
	b = appendNonZero(b, "shard_index", req.ShardIndex)
	b = appendNonZero(b, "shard_count", req.ShardCount)
	return append(b, '}'), nil
}

// appendResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes, or fails naming the first row of Y that is not finite.
func appendResponse(dst []byte, resp *MultiplyResponse) ([]byte, error) {
	b := append(dst, `{"matrix":`...)
	b = appendString(b, resp.Matrix)
	b = appendField(b, "scale", resp.Scale)
	b = appendField(b, "rows", resp.Rows)
	b = appendField(b, "cols", resp.Cols)
	b = appendField(b, "batch_nv", resp.BatchNV)
	b = append(b, `,"y":`...)
	b, bad := appendFloats(b, resp.Y)
	if bad >= 0 {
		return dst, fmt.Errorf("y row %d is %v, which JSON cannot represent", resp.Row0+bad, resp.Y[bad])
	}
	b = appendNonZero(b, "shard_index", resp.ShardIndex)
	b = appendNonZero(b, "shard_count", resp.ShardCount)
	b = appendNonZero(b, "row0", resp.Row0)
	return append(b, "}\n"...), nil
}

// WriteJSON writes an encoded body with its Content-Length in one Write.
func WriteJSON(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

func appendField(b []byte, key string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func appendNonZero(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendField(b, key, v)
}

// appendString quotes s as encoding/json does. Names needing an escape
// (HTML characters included) or holding non-ASCII bytes take
// json.Marshal itself, which cannot fail on a string.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloats appends vs as a JSON array (null when nil), returning the
// index of the first non-finite value, or -1.
func appendFloats(b []byte, vs []float64) ([]byte, int) {
	if vs == nil {
		return append(b, "null"...), -1
	}
	b = append(b, '[')
	for i, v := range vs {
		bits := math.Float64bits(v)
		if bits>>52&0x7FF == 0x7FF { // Inf or NaN
			return b, i
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, bits)
	}
	return append(b, ']'), -1
}

// scanner is the decode fast path. Every method reports false, leaving
// the decision to json.Decoder, on input it does not handle.
type scanner struct {
	b []byte
	i int
}

var (
	requestKeys  = []string{"matrix", "scale", "x", "timeout_ms", "shard_index", "shard_count"}
	responseKeys = []string{"matrix", "scale", "rows", "cols", "batch_nv", "y", "shard_index", "shard_count", "row0"}
)

// request scans a request object, x into dst when parseX and
// grammar-checked only otherwise.
func (s *scanner) request(req *MultiplyRequest, dst []float64, parseX bool) bool {
	return s.object(requestKeys, func(k int) bool {
		switch k {
		case 0:
			return s.name(&req.Matrix)
		case 1:
			return s.int(&req.Scale)
		case 2:
			var ok bool
			req.X, ok = s.floats(dst, parseX)
			return ok
		case 3:
			return s.int(&req.TimeoutMs)
		case 4:
			return s.int(&req.ShardIndex)
		default:
			return s.int(&req.ShardCount)
		}
	})
}

// response scans a response object, y into dst.
func (s *scanner) response(resp *MultiplyResponse, dst []float64) bool {
	return s.object(responseKeys, func(k int) bool {
		switch k {
		case 0:
			return s.name(&resp.Matrix)
		case 1:
			return s.int(&resp.Scale)
		case 2:
			return s.int(&resp.Rows)
		case 3:
			return s.int(&resp.Cols)
		case 4:
			return s.int(&resp.BatchNV)
		case 5:
			var ok bool
			resp.Y, ok = s.floats(dst, true)
			return ok
		case 6:
			return s.int(&resp.ShardIndex)
		case 7:
			return s.int(&resp.ShardCount)
		default:
			return s.int(&resp.Row0)
		}
	})
}

// object scans a top-level object whose keys are each one of keys, at
// most once, calling value with the key's index and the scanner at its
// value. Bytes after the closing brace are ignored, as json.Decoder
// ignores them.
func (s *scanner) object(keys []string, value func(k int) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') {
			return false
		}
		k := 0
		for k < len(keys) && string(key) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !value(k) {
			return false
		}
		seen |= 1 << k
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c after any whitespace.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str returns the contents of a string free of escapes and of the
// bytes encoding/json rejects or rewrites (controls, non-ASCII).
func (s *scanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			tok := s.b[s.i:j]
			s.i = j + 1
			return tok, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) name(dst *string) bool {
	tok, ok := s.str()
	if ok {
		*dst = string(tok)
	}
	return ok
}

// number returns the next token if it matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[s.i:i]
	s.i = i
	return tok, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int parses an integer field as encoding/json does: strconv.ParseInt
// of the token at the width of int.
func (s *scanner) int(dst *int) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*dst = int(n)
	return true
}

// floats scans an array of numbers. With parse set it appends each,
// converted to the value encoding/json's strconv.ParseFloat gives, to
// dst; an empty array then yields an empty, non-nil slice, as it does
// for encoding/json. Without it the numbers are only grammar-checked.
func (s *scanner) floats(dst []float64, parse bool) ([]float64, bool) {
	if !s.lit('[') {
		return nil, false
	}
	if parse && dst == nil {
		dst = []float64{}
	}
	if s.lit(']') {
		return dst, true
	}
	for {
		if parse {
			v, ok := s.float()
			if !ok {
				return nil, false
			}
			dst = append(dst, v)
		} else if _, ok := s.number(); !ok {
			return nil, false
		}
		if !s.lit(',') {
			return dst, s.lit(']')
		}
	}
}
