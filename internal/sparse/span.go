package sparse

// Column-index width feeding the compressed-index execution streams: the
// core Prepare pipeline stores column indices as u32 whenever they fit
// 32 bits. IndexWidthBits lets tools report the width a matrix needs
// before any Prepare runs.

// IndexWidthBits returns the narrowest conventional unsigned width (8,
// 16, 32 or 64 bits) that can hold every column index of a matrix with
// the given column count.
func IndexWidthBits(cols int) int {
	switch {
	case cols <= 1<<8:
		return 8
	case cols <= 1<<16:
		return 16
	case uint64(cols) <= 1<<32:
		return 32
	default:
		return 64
	}
}
