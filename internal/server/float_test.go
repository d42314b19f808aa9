package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkParse compares scanner.float on b with the conversion it
// replaces, the grammar check followed by strconv.ParseFloat on the
// token: the same accept/reject decision and, on accept, the same bits
// and the same bytes consumed.
func checkParse(t *testing.T, b []byte) {
	t.Helper()
	ref := scanner{b: b}
	tok, wantOK := ref.number()
	var want float64
	if wantOK {
		var err error
		want, err = strconv.ParseFloat(string(tok), 64)
		wantOK = err == nil
	}
	s := scanner{b: b}
	got, ok := s.float()
	if ok != wantOK {
		t.Fatalf("float(%q) ok = %v, strconv %v", b, ok, wantOK)
	}
	if ok && (math.Float64bits(got) != math.Float64bits(want) || s.i != ref.i) {
		t.Fatalf("float(%q) = %v (%#x) after %d bytes, strconv %v (%#x) after %d",
			b, got, math.Float64bits(got), s.i, want, math.Float64bits(want), ref.i)
	}
}

// checkFormat compares appendFloats on the value with the given bits
// against json.Marshal: the same bytes, or a failure where Marshal
// fails.
func checkFormat(t *testing.T, bits uint64) {
	t.Helper()
	v := math.Float64frombits(bits)
	want, err := json.Marshal(v)
	got, bad := appendFloats(nil, []float64{v})
	if (bad == 0) != (err != nil) {
		t.Fatalf("appendFloats(%#x) bad = %d, json.Marshal error %v", bits, bad, err)
	}
	if err == nil && string(got) != "["+string(want)+"]" {
		t.Fatalf("appendFloats(%#x) wrote %s, json.Marshal [%s]", bits, got, want)
	}
}

// randomNumber writes man * 10^exp10 as a JSON number whose decimal
// point sits at a random place among the n digits of man (or ahead of
// them, after zeros), with a random sign and exponent spelling.
func randomNumber(rng *rand.Rand, exp10 int) string {
	n := 1 + rng.Intn(19)
	digits := make([]byte, n)
	digits[0] = byte('1' + rng.Intn(9))
	for i := 1; i < n; i++ {
		digits[i] = byte('0' + rng.Intn(10))
	}
	var sb strings.Builder
	if rng.Intn(2) == 0 {
		sb.WriteByte('-')
	}
	// The value is 0.<zeros><digits> * 10^e or <int>.<frac> * 10^e.
	var e int
	if rng.Intn(4) == 0 {
		zeros := rng.Intn(3)
		sb.WriteString("0.")
		sb.WriteString(strings.Repeat("0", zeros))
		sb.Write(digits)
		e = exp10 + n + zeros
	} else {
		p := 1 + rng.Intn(n)
		sb.Write(digits[:p])
		if p < n {
			sb.WriteByte('.')
			sb.Write(digits[p:])
		}
		e = exp10 + n - p
	}
	if e != 0 || rng.Intn(2) == 0 {
		sb.WriteString([]string{"e", "E"}[rng.Intn(2)])
		if e >= 0 {
			sb.WriteString([]string{"", "+"}[rng.Intn(2)])
		}
		sb.WriteString(strconv.Itoa(e))
	}
	return sb.String()
}

// pow10Floor returns floor(10^q * 2^s) for the s that gives it n bits.
func pow10Floor(q, n int) *big.Int {
	num, den := big.NewInt(1), big.NewInt(1)
	if q >= 0 {
		num.Exp(big.NewInt(10), big.NewInt(int64(q)), nil)
	} else {
		den.Exp(big.NewInt(10), big.NewInt(int64(-q)), nil)
	}
	// shift is one of the two values the bit lengths allow.
	var m big.Int
	for shift := n - (num.BitLen() - den.BitLen()); ; shift-- {
		n1, d1 := new(big.Int).Set(num), new(big.Int).Set(den)
		if shift >= 0 {
			n1.Lsh(n1, uint(shift))
		} else {
			d1.Lsh(d1, uint(-shift))
		}
		if m.Quo(n1, d1).BitLen() <= n {
			return &m
		}
	}
}

// ratPow returns a^e exactly.
func ratPow(a int64, e int) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(a), big.NewInt(int64(max(e, -e))), nil)
	if e < 0 {
		return new(big.Rat).SetFrac(big.NewInt(1), p)
	}
	return new(big.Rat).SetInt(p)
}

// floorLog returns floor(log_base(x)), found by exact comparison from
// the guess n.
func floorLog(x *big.Rat, base int64, n int) int {
	for ratPow(base, n).Cmp(x) > 0 {
		n--
	}
	for ratPow(base, n+1).Cmp(x) <= 0 {
		n++
	}
	return n
}

// TestFloatCodecMatchesStrconv checks the float path against strconv
// and encoding/json: the copied power table, Schubfach's powers of ten
// derived from it and its logarithm approximations against exact
// values, random 1-19 digit mantissas at every decimal exponent the
// power table covers, random bits and the ends of every binary
// exponent, every small subnormal, and the edges where a shortcut
// hands over to another path.
func TestFloatCodecMatchesStrconv(t *testing.T) {
	// Both directions read the power table, and a wrong low word rarely
	// shows in a result, so check every entry against 10^q's leading
	// 128 bits, rounded down, computed exactly.
	for q := detailedPowersOfTenMinExp10; q <= detailedPowersOfTenMaxExp10; q++ {
		m := pow10Floor(q, 128)
		hi := new(big.Int).Rsh(m, 64).Uint64()
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		if got := detailedPowersOfTen[q-detailedPowersOfTenMinExp10]; got != [2]uint64{lo, hi} {
			t.Fatalf("power table 1e%d = {%#x, %#x}, want {%#x, %#x}", q, got[0], got[1], lo, hi)
		}
	}
	// sfDecimal's g = floor(10^-k * 2^r) + 1, 2^125 <= g-1 < 2^126, for
	// every k a finite float64 takes.
	for k := -324; k <= 292; k++ {
		g1, g0 := sfPow10(-k)
		if g0>>63 != 0 {
			t.Fatalf("sfPow10(%d) low half %#x is past 63 bits", -k, g0)
		}
		g := new(big.Int).Lsh(new(big.Int).SetUint64(g1), 63)
		g.Add(g, new(big.Int).SetUint64(g0)).Sub(g, big.NewInt(1))
		if g.BitLen() != 126 {
			t.Fatalf("sfPow10(%d) - 1 = %#x is not in [2^125, 2^126)", -k, g)
		}
		if want := pow10Floor(-k, 126); g.Cmp(want) != 0 {
			t.Fatalf("sfPow10(%d) - 1 = %#x, want %#x", -k, g, want)
		}
	}

	// The logarithm approximations over the range they claim, which
	// holds every exponent sfDecimal passes them.
	for e := -1100; e <= 1100; e++ {
		x := ratPow(2, e)
		if got := flog10pow2(e); got != floorLog(x, 10, got) {
			t.Fatalf("flog10pow2(%d) = %d, want %d", e, got, floorLog(x, 10, got))
		}
		x.Mul(x, big.NewRat(3, 4))
		if got := flog10threeQuartersPow2(e); got != floorLog(x, 10, got) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d, want %d", e, got, floorLog(x, 10, got))
		}
		if got := flog2pow10(e); got != floorLog(ratPow(10, e), 2, got) {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, got, floorLog(ratPow(10, e), 2, got))
		}
	}

	rng := rand.New(rand.NewSource(1))
	for exp10 := detailedPowersOfTenMinExp10; exp10 <= detailedPowersOfTenMaxExp10; exp10++ {
		for k := 0; k < 64; k++ {
			num := randomNumber(rng, exp10)
			checkParse(t, []byte(num))
			// The 19 digits nearest the midpoint between that number's
			// float and the next: Eisel–Lemire's rounding then hinges
			// on the table entry's last bits, low word included.
			v, _ := strconv.ParseFloat(num, 64)
			if math.IsInf(v, 0) || v == 0 {
				continue
			}
			mid := new(big.Float).SetPrec(256).SetFloat64(v)
			mid.Add(mid, big.NewFloat(math.Nextafter(v, 2*v)))
			checkParse(t, []byte(mid.Quo(mid, big.NewFloat(2)).Text('e', 18)))
		}
	}
	for exp2 := uint64(0); exp2 <= 0x7FF; exp2++ {
		for k := 0; k < 32; k++ {
			checkFormat(t, uint64(rng.Intn(2))<<63|exp2<<52|rng.Uint64()&(1<<52-1))
		}
		// The first mantissas hold the power of two, whose interval is
		// asymmetric, and the last the next exponent's neighbours.
		for k := uint64(0); k < 64; k++ {
			for _, mant := range []uint64{k, 1<<52 - 1 - k} {
				checkFormat(t, exp2<<52|mant)
				checkFormat(t, 1<<63|exp2<<52|mant)
			}
		}
	}
	for mant := uint64(1); mant < 1<<16; mant++ {
		checkFormat(t, mant)
		checkFormat(t, 1<<63|mant)
	}

	for _, s := range []string{
		"0", "-0", "-0.0e-0", "0e99999", "0.000e-400",
		"5e-324", "4.9406564584124654e-324", "2.4703282292062328e-324", "2e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"1e-6", "9.999999999999999e-7", "0.000001", "0.0000009999999999999999",
		"1e21", "999999999999999999999", "1e20", "100000000000000000000",
		"9007199254740993", "9007199254740992.5", "4503599627370496.5", "4503599627370497",
		"1e23", "8.988465674311579e307", "1e22", "1e-22", "123456789e-22",
		"12345678901234567890", "1.2345678901234567890123", "0.10000000000000000000001",
		"1.00000000000000000000", "9999999999999999999", "18446744073709551616",
		"1e400", "-1e400", "1e-400", "1e99999999999999999999", "1e-99999999999999999999",
		"0.5", "1.2345678", "1.23456789012345678", "0.123456781234567812345678",
		// Grammar rejects, and tokens that end early.
		"", "-", "+1", "01", ".5", "1.", "1.e5", "1e", "1e+", "-e1",
		"Infinity", "NaN", "0x10", "1_0", "1.5,", "1.5]", " \t2 ", "12345678a",
		"1.2345678x", "1.23456781234567x",
	} {
		checkParse(t, []byte(s))
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		2.2250738585072014e-308, 2.225073858507201e-308,
		1e-6, math.Nextafter(1e-6, 0), 9.999999999999999e-7, math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21), 1e20, 1e22, 1e23,
		1 << 53, 1<<53 + 1, 0.1, 1.5, 123456.789, 1e100, 1e-100,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkFormat(t, math.Float64bits(v))
	}
}

// FuzzFloatCodec checks both directions of the float path against the
// strconv calls encoding/json makes: any bytes parse to the same
// decision and bits, and any float64 bits format to json.Marshal's
// bytes.
func FuzzFloatCodec(f *testing.F) {
	for _, s := range []string{"0", "-0.0e-0", "1.5", "5e-324", "1e23", "9007199254740993", "1e400", "12345678901234567890", "0.1234567812345678"} {
		f.Add([]byte(s), math.Float64bits(0))
	}
	for _, v := range []float64{5e-324, 9.999999999999999e-7, 1e21, math.MaxFloat64, math.NaN()} {
		f.Add([]byte(nil), math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b []byte, bits uint64) {
		checkParse(t, b)
		checkFormat(t, bits)
		// The input's own bytes as float64s, so bit patterns mutate too.
		for i := 0; i+8 <= len(b); i += 8 {
			checkFormat(t, binary.LittleEndian.Uint64(b[i:]))
		}
		// Its formatting parses back bit for bit.
		if v := math.Float64frombits(bits); !math.IsInf(v, 0) && !math.IsNaN(v) {
			enc := appendFloat(nil, bits)
			s := scanner{b: enc}
			if got, ok := s.float(); !ok || math.Float64bits(got) != bits || s.i != len(enc) {
				t.Fatalf("%s parsed back as %v (%#x), ok %v, want %#x", enc, got, math.Float64bits(got), ok, bits)
			}
		}
	})
}
