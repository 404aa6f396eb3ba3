package ot

// Packed-bitmap primitives: the GMW/OT data plane keeps every bit vector —
// wire values, OT pads, an AND round's opened bits — as []uint64 words, LSB
// first (bit i lives in word i/64 at position i%64). The layout is the
// little-endian view of the byte bitmaps PackBits produces, so packing a
// word vector to bytes for the wire yields byte-identical messages to the
// historical bit-at-a-time code path.

// Words returns the number of 64-bit words needed to hold n bits.
func Words(n int) int { return (n + 63) / 64 }

// Bit returns bit i of the packed vector.
func Bit(w []uint64, i int) uint64 { return (w[i>>6] >> (uint(i) & 63)) & 1 }

// SetBit ORs bit b into position i. Callers that may overwrite a 1 with a 0
// must clear first; the GMW evaluator writes each wire exactly once, so OR
// suffices there.
func SetBit(w []uint64, i int, b uint64) { w[i>>6] |= (b & 1) << (uint(i) & 63) }

// MaskTail zeroes the bits at positions ≥ n in the final word, restoring
// the invariant that unused tail bits are zero.
func MaskTail(w []uint64, n int) {
	if r := n & 63; r != 0 && len(w) > 0 {
		w[len(w)-1] &= (1 << uint(r)) - 1
	}
}

// XorInto XORs src into dst word-wise (dst ^= src).
func XorInto(dst, src []uint64) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// BytesToWords converts an n-bit byte bitmap (PackBits layout) into packed
// words with a zeroed tail.
func BytesToWords(b []byte, n int) []uint64 {
	out := make([]uint64, Words(n))
	ReadWords(out, b, n)
	return out
}

// ReadWords is BytesToWords into dst, which must hold Words(n) words; it
// overwrites them all, tail zeroed.
func ReadWords(dst []uint64, b []byte, n int) {
	dst = dst[:Words(n)]
	clear(dst)
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		dst[i>>3] |= uint64(b[i]) << (uint(i&7) * 8)
	}
	MaskTail(dst, n)
}

// PutWords writes the low n bits of a packed word vector into dst, which
// must hold (n+7)/8 bytes, as the byte bitmap PackBits would produce: tail
// bits zero.
func PutWords(dst []byte, w []uint64, n int) {
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		dst[i] = byte(w[i>>3] >> (uint(i&7) * 8))
	}
	if r := n & 7; r != 0 {
		dst[nb-1] &= (1 << uint(r)) - 1
	}
}

// WordAt returns the 64 bits of the packed vector v that start at bit off,
// as one word; bits past the end of v read as zero.
func WordAt(v []uint64, off int) uint64 {
	i, sh := off>>6, uint(off&63)
	w := v[i] >> sh
	if sh != 0 && i+1 < len(v) {
		w |= v[i+1] << (64 - sh)
	}
	return w
}

// orWordAt ORs the 64 bits of x into the packed vector dst starting at bit
// off; dst must hold bit off+63.
func orWordAt(dst []uint64, off int, x uint64) {
	i, sh := off>>6, uint(off&63)
	dst[i] |= x << sh
	if sh != 0 {
		dst[i+1] |= x >> (64 - sh)
	}
}
