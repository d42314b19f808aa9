package sparse

import "math"

// PaletteMax is the most distinct values a Palette holds: a byte-indexed
// value stream can address 256 entries.
const PaletteMax = 256

// paletteSlots is the open-addressed table size: four slots per key
// keep linear probe runs short at the full PaletteMax keys.
const (
	paletteBits  = 10
	paletteSlots = 1 << paletteBits
)

// Palette is the set of distinct value bit patterns of a value stream,
// in first-occurrence order, behind a fixed open-addressed table keyed
// by math.Float64bits. Keys are bit patterns, not float64s: 0.0 and
// -0.0 are distinct entries and NaNs dedup by payload.
type Palette struct {
	// Vals holds the distinct values in first-occurrence order.
	Vals []float64
	keys [paletteSlots]uint64
	// pos is 1 + the key's index in Vals; 0 marks an empty slot.
	pos [paletteSlots]uint16
}

// FindPalette scans vals once, recording each new bit pattern. It stops
// and returns ok == false at the first pattern past PaletteMax.
func FindPalette(vals []float64) (p *Palette, ok bool) {
	p = &Palette{Vals: make([]float64, 0, PaletteMax)}
	var last uint64
	if len(vals) > 0 {
		last = ^math.Float64bits(vals[0]) // matches no first value
	}
	for _, v := range vals {
		b := math.Float64bits(v)
		if b == last { // runs of one value skip the probe
			continue
		}
		last = b
		s := p.slot(b)
		if p.pos[s] != 0 {
			continue
		}
		if len(p.Vals) == PaletteMax {
			return p, false
		}
		p.keys[s], p.pos[s] = b, uint16(len(p.Vals)+1)
		p.Vals = append(p.Vals, v)
	}
	return p, true
}

// Index returns v's position in Vals. v must be in the palette. The
// table is read-only after FindPalette, so concurrent calls are safe.
func (p *Palette) Index(v float64) uint8 {
	return uint8(p.pos[p.slot(math.Float64bits(v))] - 1)
}

// slot returns the slot holding key b, or the empty slot where it
// belongs. The table is never more than a quarter full, so the probe
// always ends.
func (p *Palette) slot(b uint64) int {
	s := paletteHome(b)
	for p.pos[s] != 0 && p.keys[s] != b {
		s = (s + 1) & (paletteSlots - 1)
	}
	return s
}

// paletteHome is key b's first probe slot: a Fibonacci hash, whose top
// bits mix the sign, exponent and leading mantissa bits that small
// integers and simple fractions differ in.
func paletteHome(b uint64) int { return int((b * 0x9e3779b97f4a7c15) >> (64 - paletteBits)) }
