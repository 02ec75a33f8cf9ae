//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package wire

import (
	"encoding/binary"
	"math"
)

// On any other host — the big-endian ones among them — a vector's memory
// is not its payload bytes, so each value is converted on its own.

// appendFloats appends vec to dst as little-endian float64 bits.
func appendFloats(dst []byte, vec []float64) []byte {
	for _, v := range vec {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeFloats fills vec from the little-endian float64 bits at the
// front of b and returns the rest of b; b holds at least 8·len(vec) bytes.
func decodeFloats(vec []float64, b []byte) []byte {
	for j := range vec {
		vec[j] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return b
}
