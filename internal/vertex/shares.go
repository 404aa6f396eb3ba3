package vertex

import (
	crand "crypto/rand"
	"fmt"

	"dstress/internal/ot"
)

// The wire-format primitives of share messages: both ends of every init and
// reshare message use exactly these encodings.

// OutSlot returns the slot of edge u → v on the sending side, or -1.
func OutSlot(g *Graph, u, v int) int {
	for d, w := range g.Out[u] {
		if w == v {
			return d
		}
	}
	return -1
}

// Column extracts entry m of every row.
func Column(rows [][]uint64, m int) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = r[m]
	}
	return out
}

// WordToBits unpacks the low `bits` bits of w, LSB first.
func WordToBits(w uint64, bits int) []uint8 {
	out := make([]uint8, bits)
	for i := 0; i < bits; i++ {
		out[i] = uint8((w >> i) & 1)
	}
	return out
}

// BitsToWord packs LSB-first bits into a word.
func BitsToWord(bits []uint8) uint64 {
	var w uint64
	for i, b := range bits {
		w |= uint64(b&1) << i
	}
	return w
}

// EncodeShares serializes share words as little-endian uint64s.
func EncodeShares(vals []uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(v >> (8 * b))
		}
	}
	return out
}

// DecodeShares parses exactly n little-endian uint64 share words.
func DecodeShares(data []byte, n int) ([]uint64, error) {
	if len(data) != 8*n {
		return nil, fmt.Errorf("vertex: share payload has %d bytes, want %d", len(data), 8*n)
	}
	out := make([]uint64, n)
	for i := range out {
		for b := 0; b < 8; b++ {
			out[i] |= uint64(data[i*8+b]) << (8 * b)
		}
	}
	return out, nil
}

// RandomInputBits draws n uniform unpacked bits from crypto/rand.
func RandomInputBits(n int) ([]uint8, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, (n+7)/8)
	if _, err := crand.Read(buf); err != nil {
		return nil, fmt.Errorf("vertex: reading entropy: %w", err)
	}
	return ot.UnpackBits(buf, n), nil
}
