package server

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// The /v1/multiply float path. Decoding does strconv's arithmetic
// without its generic entry points: it converts up to 19 significant
// digits with strconv's exact path or its Eisel–Lemire parser
// (eisel_lemire.go), and hands every other number to
// strconv.ParseFloat. Encoding finds the shortest digits with
// Schubfach (sfDecimal), which reads the same power table, and lays
// them out as encoding/json does. Values are bit-identical to
// strconv.ParseFloat's and bytes to json.Marshal's
// (TestFloatCodecMatchesStrconv, FuzzFloatCodec).

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float scans the next token in the grammar number checks and converts
// it as strconv.ParseFloat does, in the same pass. It reports false
// where number or ParseFloat would fail.
func (s *scanner) float() (float64, bool) {
	s.ws()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// The number is man * 10^exp, where man holds the nd digits from
	// the first nonzero one on; past 19 of them man has overflowed.
	var man uint64
	nd, exp := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		k := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		nd = i - k
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if man == 0 {
			// Zeros ahead of the first nonzero digit only move the
			// exponent.
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		k := i
		for len(b)-i >= 8 && nd+i-k <= 19-8 {
			w := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(w) {
				break
			}
			man = man*1e8 + parseEightDigits(w)
			i += 8
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == j {
			return 0, false
		}
		nd += i - k
		exp = j - i
	}
	// e saturates at 1e4 as strconv's does; such an exponent takes the
	// fallback.
	e := 0
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1e4 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, false
		}
		if eneg {
			exp -= e
		} else {
			exp += e
		}
	}
	tok := b[s.i:i]
	s.i = i
	if nd <= 19 && e < 1e4 {
		// strconv's atof64exact for an exact mantissa over an exact
		// power of ten, then Eisel–Lemire, which declines halfway-
		// ambiguous, subnormal and out-of-range results.
		if man>>52 == 0 && -22 <= exp && exp <= 0 {
			v := float64(man)
			if neg {
				v = -v
			}
			return v / float64pow10[-exp], true
		}
		if v, ok := eiselLemire64(man, exp, neg); ok {
			return v, true
		}
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// eightDigits reports whether the eight bytes loaded little-endian into
// w are all ASCII digits.
func eightDigits(w uint64) bool {
	return ((w+0x4646464646464646)|(w-0x3030303030303030))&0x8080808080808080 == 0
}

// parseEightDigits returns the value of the eight ASCII digits loaded
// little-endian into w, the first digit most significant.
func parseEightDigits(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // each even byte: two digits
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return uint64(uint32(w))
}

// appendFloat appends the finite float64 with the given bits as
// encoding/json writes it: the shortest digits that round-trip, in 'f'
// form unless the value is nonzero with |v| < 1e-6 or |v| >= 1e21, and
// then in 'e' form with an exponent of one to three digits (e-7, not
// strconv's e-07).
func appendFloat(b []byte, bits uint64) []byte {
	if bits>>63 != 0 {
		b = append(b, '-')
		bits &^= 1 << 63
	}
	if bits == 0 {
		return append(b, '0')
	}
	// f < 10^17: one leading digit and two chunks of eight, then the
	// zeros at both ends trimmed. The value is 0.digs * 10^dp.
	f, e := sfDecimal(bits)
	var buf [17]byte
	d0 := f / 1e16
	f -= d0 * 1e16
	hi := f / 1e8
	buf[0] = byte('0' + d0)
	binary.LittleEndian.PutUint64(buf[1:], eightDigitsASCII(uint32(hi)))
	binary.LittleEndian.PutUint64(buf[9:], eightDigitsASCII(uint32(f-hi*1e8)))
	i, j := 0, len(buf)
	for buf[i] == '0' {
		i++
	}
	for buf[j-1] == '0' {
		j--
	}
	digs := buf[i:j]
	nd, dp := len(digs), len(buf)-i+e

	if abs := math.Float64frombits(bits); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digs[0])
		if nd > 1 {
			b = append(b, '.')
			b = append(b, digs[1:]...)
		}
		e := dp - 1
		if e < 0 {
			b = append(b, 'e', '-')
			e = -e
		} else {
			b = append(b, 'e', '+')
		}
		if e >= 100 {
			b = append(b, byte('0'+e/100))
		}
		if e >= 10 {
			b = append(b, byte('0'+e/10%10))
		}
		return append(b, byte('0'+e%10))
	}
	switch {
	case dp <= 0:
		b = append(b, '0', '.')
		for k := dp; k < 0; k++ {
			b = append(b, '0')
		}
		return append(b, digs...)
	case dp < nd:
		b = append(b, digs[:dp]...)
		b = append(b, '.')
		return append(b, digs[dp:]...)
	default:
		b = append(b, digs...)
		for k := nd; k < dp; k++ {
			b = append(b, '0')
		}
		return b
	}
}

// eightDigitsASCII returns the eight decimal digits of x < 10^8 as
// ASCII, to be stored little-endian: the first digit in the low byte.
// It splits x into 4-digit halves in 32-bit lanes, each lane into
// 2-digit 16-bit lanes and those into bytes; the multiplications by
// 10486/2^20 and 103/2^10 divide exactly by 100 and by 10 in range and
// carry no bits between lanes.
func eightDigitsASCII(x uint32) uint64 {
	hi := x / 1e4
	v := uint64(hi) | uint64(x-hi*1e4)<<32
	q := v * 10486 >> 20 & 0x0000007F0000007F
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000F000F000F000F
	v = q | (v-q*10)<<8
	return v + 0x3030303030303030
}

// sfDecimal returns the shortest decimal f*10^e that reads back as the
// positive finite float64 with the given bits, the one nearest to it
// and, on a tie, the one with even f: the output of strconv's shortest
// formatting. It is Giulietti's Schubfach ("The Schubfach way to
// render doubles", 2020): scale the float and the two ends of its
// rounding interval by 10^-k, where 10^k is at most the float's
// spacing, with one 126-bit power of ten; then at most one multiple of
// 10^(k+1) lies in the interval, and otherwise s*10^k or (s+1)*10^k,
// the neighbours of the float, is the answer. Unlike Java's
// Double.toString this asks for no second digit, so the 10^(k+1) test
// runs for every s and tiny subnormals need no rescale.
func sfDecimal(bits uint64) (f uint64, e int) {
	c := bits & (1<<52 - 1)
	q := int(bits>>52) - 1075
	if q == -1075 {
		q = -1074 // subnormal
	} else {
		c |= 1 << 52
		// An integer below 2^53 is its own shortest decimal: its
		// rounding interval holds no other integer.
		if -52 <= q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
			return c >> uint(-q), 0
		}
	}
	// cb is the float and cbl, cbr the ends of its rounding interval
	// in units of 2^q/4 (the lower end is half as far below a power of
	// two); the ends belong to the interval only when c is even. vb,
	// vbl and vbr are the same in units of 10^k/4, rounded to odd.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g1, g0 := sfPow10(-k)
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both neighbours read back: the nearer, ties to even.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// sfPow10 returns Schubfach's g = floor(10^n * 2^r) + 1 in [2^125,
// 2^126] as g1*2^63 + g0, for -292 <= n <= 324. detailedPowersOfTen
// holds floor(10^n * 2^(r+2)), so g-1 is that entry shifted right by
// two.
func sfPow10(n int) (g1, g0 uint64) {
	d := detailedPowersOfTen[n-detailedPowersOfTenMinExp10]
	g0 = (d[0]>>2|d[1]<<62)&mask63 + 1
	return d[1]>>1 + g0>>63, g0 & mask63
}

const mask63 = 1<<63 - 1

// rop returns g*cp / 2^127 rounded to odd, for g = g1*2^63 + g0: the
// truncated quotient with its last bit set when the remainder the
// paper's error bound keeps is nonzero.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&mask63+mask63)>>63
}

// flog10pow2 returns floor(log10(2^e)), flog10threeQuartersPow2
// floor(log10(3/4 * 2^e)) and flog2pow10 floor(log2(10^e)), exact for
// -1100 <= e <= 1100 and within 32 bits there.
func flog10pow2(e int) int { return e * 315653 >> 20 }

func flog10threeQuartersPow2(e int) int { return (e*315653 - 131008) >> 20 }

func flog2pow10(e int) int { return e * 1741647 >> 19 }
