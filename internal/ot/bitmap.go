package ot

import (
	"fmt"
)

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

// WordsToBytes converts the low n bits of a packed word vector into the
// byte bitmap PackBits would produce: (n+7)/8 bytes, tail bits zero.
func WordsToBytes(w []uint64, n int) []byte {
	out := make([]byte, (n+7)/8)
	PutWords(out, w, n)
	return out
}

// PutWords is WordsToBytes into dst, which must hold (n+7)/8 bytes.
func PutWords(dst []byte, w []uint64, n int) {
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		dst[i] = byte(w[i>>3] >> (uint(i&7) * 8))
	}
	if r := n & 7; r != 0 {
		dst[nb-1] &= (1 << uint(r)) - 1
	}
}

// RandomWords draws n uniform bits from the entropy source, packed, tail
// zeroed; an entropy failure is returned, not panicked.
func RandomWords(n int) ([]uint64, error) {
	buf := make([]byte, (n+7)/8)
	if err := readEntropy(buf); err != nil {
		return nil, err
	}
	return BytesToWords(buf, n), nil
}

// ---------------------------------------------------------------------------
// bitbuf: a FIFO of packed bits
// ---------------------------------------------------------------------------

// bitbuf queues packed bits: the IKNP extension pushes whole chunks and the
// pad consumers pop arbitrary bit counts, so pads flow from the transpose
// to the wire without ever unpacking to one byte per bit.
type bitbuf struct {
	w []uint64
	n int // valid bits in w; tail bits beyond n are zero
}

func (b *bitbuf) len() int { return b.n }

// push appends n bits from src (packed, tail past n zero).
func (b *bitbuf) push(src []uint64, n int) {
	if n == 0 {
		return
	}
	off := uint(b.n & 63)
	need := Words(b.n + n)
	for len(b.w) < need {
		b.w = append(b.w, 0)
	}
	if off == 0 {
		copy(b.w[b.n>>6:], src[:Words(n)])
	} else {
		base := b.n >> 6
		for i := 0; i < Words(n); i++ {
			b.w[base+i] |= src[i] << off
			if base+i+1 < len(b.w) {
				b.w[base+i+1] = src[i] >> (64 - off)
			}
		}
	}
	b.n += n
	MaskTail(b.w, b.n)
}

// pop removes the first n bits and returns them packed with a zero tail.
func (b *bitbuf) pop(n int) []uint64 {
	if n > b.n {
		panic(fmt.Sprintf("ot: bitbuf underflow: pop %d of %d", n, b.n))
	}
	out := make([]uint64, Words(n))
	copy(out, b.w[:min(len(b.w), Words(n))])
	MaskTail(out, n)

	rem := b.n - n
	wshift, shift := n>>6, uint(n&63)
	if shift == 0 {
		copy(b.w, b.w[wshift:])
	} else {
		for i := 0; i < Words(rem); i++ {
			v := b.w[wshift+i] >> shift
			if wshift+i+1 < len(b.w) {
				v |= b.w[wshift+i+1] << (64 - shift)
			}
			b.w[i] = v
		}
	}
	b.w = b.w[:Words(rem)]
	b.n = rem
	MaskTail(b.w, b.n)
	return out
}
