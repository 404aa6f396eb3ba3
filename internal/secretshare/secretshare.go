// Package secretshare implements the XOR-based secret sharing that DStress
// uses throughout: vertex states and messages are split into k+1 shares held
// by the members of a block (§3.3), and the transfer protocol further splits
// each share into k+1 subshares (Strawman #2, §3.5).
//
// A value is represented as an L-bit word; a sharing is a slice of L-bit
// words whose bitwise XOR equals the value. XOR sharing is associative and
// commutative, which is exactly the property the transfer protocol relies on
// when recipients combine subshares from different senders into fresh
// shares.
package secretshare

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// Word is an L-bit value stored in a uint64. The width L is tracked by the
// caller; bits above L must be zero.
type Word = uint64

// randWord returns a uniformly random word with the low `bits` bits set
// randomly and the rest zero.
func randWord(bits int) Word {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("secretshare: entropy failure: %v", err))
	}
	w := binary.LittleEndian.Uint64(b[:])
	if bits >= 64 {
		return w
	}
	return w & ((1 << bits) - 1)
}

// Mask returns the bitmask for an L-bit word.
func Mask(bits int) Word {
	if bits >= 64 {
		return ^Word(0)
	}
	return (1 << bits) - 1
}

// SplitXOR splits value into n shares whose XOR equals value. The first n-1
// shares are uniformly random; the last makes the XOR come out right, so any
// n-1 shares are jointly independent of the value.
func SplitXOR(value Word, n, bits int) []Word {
	if n < 1 {
		panic("secretshare: need at least one share")
	}
	value &= Mask(bits)
	shares := make([]Word, n)
	acc := value
	for i := 0; i < n-1; i++ {
		shares[i] = randWord(bits)
		acc ^= shares[i]
	}
	shares[n-1] = acc
	return shares
}

// CombineXOR reconstructs the value from XOR shares.
func CombineXOR(shares []Word) Word {
	var v Word
	for _, s := range shares {
		v ^= s
	}
	return v
}

// Bits explodes an L-bit word into individual bits, least significant first.
// The transfer protocol encrypts each bit separately (Strawman #3).
func Bits(w Word, bits int) []uint8 {
	out := make([]uint8, bits)
	for i := 0; i < bits; i++ {
		out[i] = uint8((w >> i) & 1)
	}
	return out
}
