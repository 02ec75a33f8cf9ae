//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package wire

import "unsafe"

// On a little-endian host a vector's memory is its payload bytes: the
// wire's little-endian float64 bits. Each vector moves as one copy.

// appendFloats appends vec to dst as little-endian float64 bits.
func appendFloats(dst []byte, vec []float64) []byte {
	return append(dst, floatBytes(vec)...)
}

// decodeFloats fills vec from the little-endian float64 bits at the
// front of b and returns the rest of b; b holds at least 8·len(vec) bytes.
func decodeFloats(vec []float64, b []byte) []byte {
	return b[copy(floatBytes(vec), b[:8*len(vec)]):]
}

// floatBytes is vec's memory as bytes.
func floatBytes(vec []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), 8*len(vec))
}
