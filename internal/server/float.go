package server

import (
	"encoding/binary"
	"math"
	"strconv"
)

// The /v1/multiply float path. Both directions do strconv's arithmetic
// without its generic entry points: decoding converts up to 19
// significant digits with strconv's exact path or its Eisel–Lemire
// parser (eisel_lemire.go), and hands every other number to
// strconv.ParseFloat; encoding runs strconv's shortest Ryu formatter
// (ftoaryu.go) and lays the digits out as encoding/json does. Values
// are bit-identical to strconv.ParseFloat's and bytes to json.Marshal's
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
	}
	exp := int(bits>>52) & 0x7FF
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp++ // subnormal
	} else {
		mant |= 1 << 52
	}
	var buf [32]byte
	d := decimalSlice{d: buf[:]}
	ryuFtoaShortest(&d, mant, exp-1023-52)
	digs := d.d[:d.nd]

	if abs := math.Float64frombits(bits &^ (1 << 63)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = append(b, digs[0])
		if len(digs) > 1 {
			b = append(b, '.')
			b = append(b, digs[1:]...)
		}
		e := d.dp - 1
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
	case d.nd == 0:
		return append(b, '0')
	case d.dp <= 0:
		b = append(b, '0', '.')
		for k := d.dp; k < 0; k++ {
			b = append(b, '0')
		}
		return append(b, digs...)
	case d.dp < d.nd:
		b = append(b, digs[:d.dp]...)
		b = append(b, '.')
		return append(b, digs[d.dp:]...)
	default:
		b = append(b, digs...)
		for k := d.nd; k < d.dp; k++ {
			b = append(b, '0')
		}
		return b
	}
}
