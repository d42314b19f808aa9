package sparse

import (
	"math"
	"testing"
)

// Keys that share a home slot, including the last slot so the probe
// wraps to slot 0, must each get their own slot and index.
func TestPaletteCollidingKeys(t *testing.T) {
	for _, home := range []int{0, 517, paletteSlots - 1} {
		var vals []float64
		for b := uint64(1); len(vals) < 40; b++ {
			if paletteHome(b) == home {
				vals = append(vals, math.Float64frombits(b))
			}
		}
		stream := append(append([]float64(nil), vals...), vals...)
		p, ok := FindPalette(stream)
		if !ok || len(p.Vals) != len(vals) {
			t.Fatalf("home %d: FindPalette kept %d of %d colliding keys (ok=%v)", home, len(p.Vals), len(vals), ok)
		}
		for i, v := range vals {
			if math.Float64bits(p.Vals[i]) != math.Float64bits(v) || p.Index(v) != uint8(i) {
				t.Fatalf("home %d: key %d at Vals %#x, Index %d", home, i, math.Float64bits(p.Vals[i]), p.Index(v))
			}
		}
	}
}

// The early exit stops at the first value past PaletteMax and keeps
// exactly PaletteMax values in first-occurrence order.
func TestPaletteEarlyExit(t *testing.T) {
	vals := make([]float64, 0, 2*PaletteMax)
	for i := 0; i <= PaletteMax; i++ {
		vals = append(vals, float64(PaletteMax-i))
	}
	p, ok := FindPalette(vals)
	if ok || len(p.Vals) != PaletteMax || p.Vals[0] != PaletteMax || p.Vals[PaletteMax-1] != 1 {
		t.Fatalf("%d distinct: ok=%v, kept %d", PaletteMax+1, ok, len(p.Vals))
	}
	if p, ok := FindPalette(vals[:PaletteMax]); !ok || len(p.Vals) != PaletteMax {
		t.Fatalf("%d distinct: ok=%v, kept %d", PaletteMax, ok, len(p.Vals))
	}
	if p, ok := FindPalette(nil); !ok || len(p.Vals) != 0 {
		t.Fatalf("empty stream: ok=%v, kept %d", ok, len(p.Vals))
	}
}
