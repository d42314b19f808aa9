package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"unicode/utf8"

	"haspmv/internal/gen"
)

// The package's tests name the body types by their short names.
type (
	multiplyRequest  = MultiplyRequest
	multiplyResponse = MultiplyResponse
)

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRequest(a, b MultiplyRequest) bool {
	return a.Matrix == b.Matrix && a.Scale == b.Scale && a.TimeoutMs == b.TimeoutMs &&
		a.ShardIndex == b.ShardIndex && a.ShardCount == b.ShardCount && sameFloats(a.X, b.X)
}

func sameResponse(a, b MultiplyResponse) bool {
	return a.Matrix == b.Matrix && a.Scale == b.Scale && a.Rows == b.Rows && a.Cols == b.Cols &&
		a.BatchNV == b.BatchNV && a.ShardIndex == b.ShardIndex && a.ShardCount == b.ShardCount &&
		a.Row0 == b.Row0 && sameFloats(a.Y, b.Y)
}

// sameErr reports whether two decode results agree: both nil, or both
// errors with the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// FuzzMultiplyCodec checks the wire codec against encoding/json, its
// reference: on any body, decoding accepts or rejects exactly as
// json.Decoder does (same error text) and yields the same fields, x
// compared bit for bit; on any y, encoding writes exactly the bytes
// json.Encoder writes, and fails where it fails.
func FuzzMultiplyCodec(f *testing.F) {
	for _, seed := range []string{
		// The shape clients send.
		`{"matrix":"dawson5","scale":16,"x":[0.5,1,2.25,-3],"timeout_ms":100}`,
		// Whitespace between every token.
		" { \"matrix\" :\t\"dawson5\" ,\r\n \"scale\" : 16 , \"x\" : [ 1 , 2 ] } ",
		// Signed zero, subnormals, and both sides of each float-format cutoff.
		`{"matrix":"m","x":[-0,5e-324,2.2250738585072014e-308,1e-7,1e-6,9.99e20,1e21,1e308,-1E+2]}`,
		// Fraction runs of eight digits and more, 19 and 20 significant
		// digits, and an exponent past strconv's saturation point.
		`{"matrix":"m","x":[0.12345678901234567,1.2345678901234567e-5,0.0000000012345678901234567,1234567890.123456789,1.00000000000000000001,0e10000]}`,
		// Out of float64 range: rejected.
		`{"matrix":"m","x":[1e999]}`,
		// An escaped name and a raw HTML-character name.
		`{"matrix":"\u003ca\u0026b\u003e","x":[1]}`,
		`{"matrix":"<a&b>","x":[1]}`,
		// A duplicate x.
		`{"matrix":"m","x":[1],"x":[2,3]}`,
		// An upper-case key.
		`{"Matrix":"m","x":[1]}`,
		// An unknown nested field.
		`{"matrix":"m","meta":{"a":[1,{"b":null}]},"x":[1]}`,
		// Trailing bytes after the object, which json.Decoder ignores.
		`{"matrix":"m","x":[1]}garbage`,
		// Shard fields, an empty x, null, non-integer ints, bad grammar.
		`{"matrix":"m","scale":16,"x":[],"shard_index":1,"shard_count":2}`,
		`{"matrix":null,"x":null}`,
		`{"matrix":"m","scale":1.5,"timeout_ms":1e2}`,
		`{"matrix":"m","x":[01,.5,1.,-]}`,
		`{"matrix":"m","x":[1,]}`,
		`{"matrix":"m",}`,
		`{}`,
		``,
		// A response body.
		`{"matrix":"m","scale":16,"rows":2,"cols":3,"batch_nv":4,"y":[1.5,-2e-9],"shard_index":1,"shard_count":2,"row0":7}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		wb := new(WireBuf)

		var want, got MultiplyRequest
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		gotErr := wb.DecodeRequest(b, &got)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("DecodeRequest(%q) error %v, encoding/json %v", b, gotErr, wantErr)
		}
		if wantErr == nil && !sameRequest(got, want) {
			t.Fatalf("DecodeRequest(%q) = %+v, encoding/json %+v", b, got, want)
		}
		// Header-only decoding never converts x, so it accepts at least
		// what a full decode accepts and agrees on every other field.
		var hdr MultiplyRequest
		hdrErr := DecodeRequestHeader(b, &hdr)
		if wantErr == nil {
			want.X = nil
			if hdrErr != nil || !sameRequest(hdr, want) {
				t.Fatalf("DecodeRequestHeader(%q) = %+v, %v; encoding/json %+v", b, hdr, hdrErr, want)
			}
		}

		var wantResp, gotResp MultiplyResponse
		wantErr = json.NewDecoder(bytes.NewReader(b)).Decode(&wantResp)
		gotErr = wb.DecodeResponse(b, &gotResp)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("DecodeResponse(%q) error %v, encoding/json %v", b, gotErr, wantErr)
		}
		if wantErr == nil && !sameResponse(gotResp, wantResp) {
			t.Fatalf("DecodeResponse(%q) = %+v, encoding/json %+v", b, gotResp, wantResp)
		}

		// Encode y made of the input's bits, named by its first bytes.
		var y []float64
		for i := 0; i+8 <= len(b); i += 8 {
			y = append(y, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
		n := len(b)
		resp := MultiplyResponse{
			Matrix: string(b[:min(n, 12)]), Scale: n, Rows: len(y), Cols: n / 3, BatchNV: n % 9,
			Y: y, ShardIndex: n % 2, ShardCount: n % 3, Row0: n % 5,
		}
		var wantBuf bytes.Buffer
		wantErr = json.NewEncoder(&wantBuf).Encode(resp)
		enc, gotErr := appendResponse(nil, &resp)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("appendResponse error %v, encoding/json %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !bytes.Equal(enc, wantBuf.Bytes()) {
			t.Fatalf("appendResponse wrote\n%s\nencoding/json wrote\n%s", enc, wantBuf.Bytes())
		}
		// What the codec writes, it reads back bit for bit — the name
		// too, unless encoding/json had to replace invalid UTF-8 in it.
		if !utf8.ValidString(resp.Matrix) {
			resp.Matrix = "m"
		}
		if enc, err := appendResponse(nil, &resp); err != nil {
			t.Fatal(err)
		} else if err := wb.DecodeResponse(enc, &gotResp); err != nil || !sameResponse(gotResp, resp) {
			t.Fatalf("response round trip: %+v, %v; want %+v", gotResp, err, resp)
		}
		req := MultiplyRequest{Matrix: resp.Matrix, Scale: n, X: y, TimeoutMs: n % 7, ShardIndex: n % 2, ShardCount: n % 3}
		sub, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if err := wb.DecodeRequest(sub, &got); err != nil || !sameRequest(got, req) {
			t.Fatalf("request round trip of %s: %+v, %v; want %+v", sub, got, err, req)
		}
	})
}

// The fast path must stay reflection-free: decoding a 125k-element body
// and encoding its response on warm buffers allocates at most the
// matrix name, where encoding/json allocates megabytes.
func TestWireCodecAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 125_000)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	body, err := json.Marshal(MultiplyRequest{Matrix: "webbase-1M", Scale: 8, X: x, TimeoutMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	wb := new(WireBuf)
	var req MultiplyRequest
	roundTrip := func() {
		if err := wb.DecodeRequest(body, &req); err != nil {
			t.Fatal(err)
		}
		y := wb.Floats(len(req.X))
		copy(y, req.X)
		resp := MultiplyResponse{Matrix: req.Matrix, Scale: req.Scale, Rows: len(y), Cols: len(y), BatchNV: 2, Y: y}
		if _, err := wb.EncodeResponse(&resp); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if !sameFloats(req.X, x) {
		t.Fatal("decoded x differs from the encoded one")
	}
	if allocs := testing.AllocsPerRun(5, roundTrip); allocs > 1 {
		t.Fatalf("decode+encode of a 125k-element body: %.0f allocs/op, want <= 1", allocs)
	}
}

// A y that overflows to infinity has no JSON encoding: the worker
// answers 422 naming the row instead of an empty 200.
func TestServeNonFiniteYIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 64})
	x := make([]float64, gen.Representative("dawson5", 64).Cols)
	for i := range x {
		x[i] = 1.7e308
	}
	resp, body := postMultiply(t, ts.URL, multiplyRequest{Matrix: "dawson5", X: x})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%d-byte body %.80q), want 422", resp.StatusCode, len(body), body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "row") {
		t.Fatalf("422 body %q does not name the row", body)
	}
}

var wireSink int

// BenchmarkWireCodec prices the codec on a serve-json-shaped body: 125k
// x values 0.5+rng.Float64(), about 2.35 MB of JSON. decode is the
// worker's DecodeRequest, encode its EncodeResponse of the same values
// as y, and header the router's DecodeRequestHeader.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 125_000)
	for i := range x {
		x[i] = 0.5 + rng.Float64()
	}
	body, err := json.Marshal(MultiplyRequest{Matrix: "webbase-1M", Scale: 8, X: x, TimeoutMs: 500})
	if err != nil {
		b.Fatal(err)
	}
	resp := MultiplyResponse{Matrix: "webbase-1M", Scale: 8, Rows: len(x), Cols: len(x), BatchNV: 1, Y: x}
	b.Run("decode", func(b *testing.B) {
		wb := new(WireBuf)
		var req MultiplyRequest
		if err := wb.DecodeRequest(body, &req); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := wb.DecodeRequest(body, &req); err != nil {
				b.Fatal(err)
			}
			wireSink += len(req.X)
		}
	})
	b.Run("encode", func(b *testing.B) {
		wb := new(WireBuf)
		enc, err := wb.EncodeResponse(&resp)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc, err := wb.EncodeResponse(&resp)
			if err != nil {
				b.Fatal(err)
			}
			wireSink += len(enc)
		}
	})
	b.Run("header", func(b *testing.B) {
		var req MultiplyRequest
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeRequestHeader(body, &req); err != nil {
				b.Fatal(err)
			}
			wireSink += req.Scale
		}
	})
}
