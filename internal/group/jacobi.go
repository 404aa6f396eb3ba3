package group

import (
	"encoding/binary"
	"math/bits"
)

// limbs is a 256-bit integer as four 64-bit words, least significant
// first: on it jacobi, the modp256 subgroup check, needs no allocation.
type limbs [4]uint64

// limbsOf reads a 32-byte big-endian string (bytes, not big.Int words, so
// nothing depends on big.Word's size).
func limbsOf(b []byte) limbs {
	be := binary.BigEndian
	return limbs{be.Uint64(b[24:]), be.Uint64(b[16:]), be.Uint64(b[8:]), be.Uint64(b)}
}

func (a limbs) less(b limbs) bool {
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// jacobi returns the Jacobi symbol (a | n) for odd n by the binary
// algorithm: strip factors of two from a (each flips the sign when
// n ≡ ±3 mod 8), swap by quadratic reciprocity so that a ≥ n (a flip when
// both are 3 mod 4), subtract n, and repeat until a is zero. The result is
// 0 when gcd(a, n) > 1.
func jacobi(a, n limbs) int {
	t := 1
	for a != (limbs{}) {
		for a[0] == 0 { // 64 factors of two leave the sign alone
			a = limbs{a[1], a[2], a[3], 0}
		}
		if z := uint(bits.TrailingZeros64(a[0])); z > 0 {
			a = limbs{a[0]>>z | a[1]<<(64-z), a[1]>>z | a[2]<<(64-z), a[2]>>z | a[3]<<(64-z), a[3] >> z}
			if r := n[0] & 7; z&1 == 1 && (r == 3 || r == 5) {
				t = -t
			}
		}
		if a.less(n) {
			a, n = n, a
			if a[0]&3 == 3 && n[0]&3 == 3 {
				t = -t
			}
		}
		var c uint64
		a[0], c = bits.Sub64(a[0], n[0], 0)
		a[1], c = bits.Sub64(a[1], n[1], c)
		a[2], c = bits.Sub64(a[2], n[2], c)
		a[3], _ = bits.Sub64(a[3], n[3], c)
	}
	if n == (limbs{1}) {
		return t
	}
	return 0
}
