package sparse

import (
	"math"
	"testing"
)

func TestIndexWidthBits(t *testing.T) {
	cases := []struct{ cols, want int }{
		{0, 8}, {1, 8}, {256, 8}, {257, 16},
		{1 << 16, 16}, {1<<16 + 1, 32}, {1 << 30, 32},
	}
	// The 64-bit cases only exist where int can hold them (not GOARCH=386);
	// the shift is kept non-constant so this file still compiles there.
	if math.MaxInt > math.MaxUint32 {
		one := 1
		cases = append(cases,
			struct{ cols, want int }{one << 31, 32},
			struct{ cols, want int }{math.MaxInt, 64})
	}
	for _, tc := range cases {
		if got := IndexWidthBits(tc.cols); got != tc.want {
			t.Errorf("IndexWidthBits(%d) = %d, want %d", tc.cols, got, tc.want)
		}
	}
}
