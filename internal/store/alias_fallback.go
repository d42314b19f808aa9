//go:build !((amd64 || arm64) && !purego)

package store

import (
	"encoding/binary"
	"math"

	"haspmv/internal/kernel"
)

// Copying codec for platforms where the on-disk little-endian 64-bit
// layout does not match memory (big-endian, 32-bit int, or the purego
// tag). Sections are decoded element by element; the mmap window is
// only a read source, never aliased.

func bytesOfInts(s []int) []byte {
	b := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(v)))
	}
	return b
}

func intsOfBytes(b []byte, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return s
}

func bytesOfU32(s []uint32) []byte {
	b := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

func u32OfBytes(b []byte, n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return s
}

func bytesOfF64(s []float64) []byte {
	b := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func f64OfBytes(b []byte, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return s
}

func bytesOfSegs(s []kernel.Segment) []byte {
	b := make([]byte, segBytes*len(s))
	for i, g := range s {
		binary.LittleEndian.PutUint32(b[12*i:], uint32(g.K0))
		binary.LittleEndian.PutUint32(b[12*i+4:], uint32(g.K1))
		binary.LittleEndian.PutUint32(b[12*i+8:], uint32(g.Dst))
	}
	return b
}

func segsOfBytes(b []byte, n int) []kernel.Segment {
	s := make([]kernel.Segment, n)
	for i := range s {
		s[i].K0 = int32(binary.LittleEndian.Uint32(b[12*i:]))
		s[i].K1 = int32(binary.LittleEndian.Uint32(b[12*i+4:]))
		s[i].Dst = int32(binary.LittleEndian.Uint32(b[12*i+8:]))
	}
	return s
}
