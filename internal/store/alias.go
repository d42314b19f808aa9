//go:build (amd64 || arm64) && !purego

package store

import (
	"unsafe"

	"haspmv/internal/kernel"
)

// Zero-copy aliasing between the on-disk little-endian section bytes
// and the typed slices a Prepared instance streams. On amd64/arm64 Go
// is little-endian with 64-bit int, so the disk layout *is* the memory
// layout and a section of the mmap window can be resliced in place —
// the whole point of the store's cold-start path: no O(nnz) copy, the
// kernels fault pages in on first touch. The copying fallback in
// alias_fallback.go serves every other platform.

func bytesOfInts(s []int) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

func intsOfBytes(b []byte, n int) []int {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n)
}

func bytesOfU32(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func u32OfBytes(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

func bytesOfI32(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func i32OfBytes(b []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

func bytesOfF64(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

func f64OfBytes(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

func bytesOfSegs(s []kernel.Segment) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), segBytes*len(s))
}

func segsOfBytes(b []byte, n int) []kernel.Segment {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*kernel.Segment)(unsafe.Pointer(&b[0])), n)
}
