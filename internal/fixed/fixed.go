// Package fixed implements signed fixed-point arithmetic with a configurable
// number of fractional bits.
//
// DStress executes vertex programs inside Boolean-circuit MPC, so every
// quantity that flows through an update function must have a fixed binary
// representation. The systemic-risk models of the paper (Eisenberg–Noe and
// Elliott–Golub–Jackson, §4) manipulate dollar amounts and fractional
// quantities such as prorate factors and valuation discounts; both the
// plaintext reference implementations and the circuit encodings in
// internal/risk use this package so that the two agree bit-for-bit.
//
// Values are stored as int64 two's-complement words interpreted as
// value = raw / 2^frac. All arithmetic truncates toward negative infinity on
// the fractional boundary, exactly like the shift-based circuit blocks in
// internal/circuit, so plaintext and MPC evaluation produce identical bits.
package fixed

import (
	"fmt"
	"math"
)

// Frac is the default number of fractional bits used by the risk models.
// 16 fractional bits give a resolution of ~1.5e-5, far below the $1-billion
// granularity that dollar-differential privacy protects (§4.5), while leaving
// 47 integer bits for dollar amounts.
const Frac = 16

// Val is a fixed-point number with Frac fractional bits.
type Val int64

// One is the fixed-point representation of 1.0.
const One Val = 1 << Frac

// FromFloat converts a float64 to fixed point, rounding to nearest.
func FromFloat(f float64) Val {
	return Val(math.Round(f * float64(One)))
}

// Float converts back to float64. The conversion is exact for values whose
// magnitude fits in a float64 mantissa.
func (v Val) Float() float64 {
	return float64(v) / float64(One)
}

// Int returns the integer part, truncating toward negative infinity.
func (v Val) Int() int64 {
	return int64(v >> Frac)
}

// Raw exposes the underlying two's-complement word. Circuit encodings feed
// this into wire assignments.
func (v Val) Raw() int64 { return int64(v) }

// FromRaw wraps a raw two's-complement word produced by a circuit evaluation.
func FromRaw(r int64) Val { return Val(r) }

// Add returns v+w. Overflow wraps, matching the modular adders used in the
// circuit encoding; callers are expected to respect the width budget.
func (v Val) Add(w Val) Val { return v + w }

// Sub returns v-w with the same wrapping semantics as Add.
func (v Val) Sub(w Val) Val { return v - w }

// Neg returns -v.
func (v Val) Neg() Val { return -v }

// Mul returns the fixed-point product, truncating the low Frac bits toward
// negative infinity (arithmetic shift), exactly like the circuit multiplier
// followed by a right shift.
func (v Val) Mul(w Val) Val {
	// Widen through big-ish arithmetic: int64*int64 can overflow, but the
	// risk models keep magnitudes below 2^31 in fixed representation, so a
	// 128-bit intermediate via math/bits would be overkill. Use float-free
	// split multiplication to stay exact for the full int64 range.
	hi, lo := mul64(int64(v), int64(w))
	// Combined 128-bit value is (hi<<64)|lo; shift right by Frac
	// arithmetically.
	res := int64(lo>>Frac) | (hi << (64 - Frac))
	return Val(res)
}

// mul64 computes the signed 128-bit product of a and b as (hi, lo).
func mul64(a, b int64) (hi int64, lo uint64) {
	// Unsigned 128-bit multiply, then correct for signs (standard identity:
	// signed_hi = unsigned_hi - (a<0 ? b : 0) - (b<0 ? a : 0)).
	au, bu := uint64(a), uint64(b)
	aHi, aLo := au>>32, au&0xffffffff
	bHi, bLo := bu>>32, bu&0xffffffff

	t := aLo * bLo
	lo32 := t & 0xffffffff
	carry := t >> 32

	t = aHi*bLo + carry
	mid1 := t & 0xffffffff
	carry = t >> 32

	t = aLo*bHi + mid1
	mid2 := t & 0xffffffff
	carry2 := t >> 32

	uhi := aHi*bHi + carry + carry2
	lo = (mid2 << 32) | lo32

	shi := int64(uhi)
	if a < 0 {
		shi -= b
	}
	if b < 0 {
		shi -= a
	}
	return shi, lo
}

// Div returns the fixed-point quotient v/w, truncating toward zero, matching
// the restoring-division circuit in internal/circuit. Division by zero
// returns the saturated maximum with the sign of v, mirroring the circuit's
// behaviour (the risk models guard against zero denominators, but the
// definition must still be total).
func (v Val) Div(w Val) Val {
	if w == 0 {
		if v < 0 {
			return Val(math.MinInt64)
		}
		return Val(math.MaxInt64)
	}
	neg := (v < 0) != (w < 0)
	av, aw := v, w
	if av < 0 {
		av = -av
	}
	if aw < 0 {
		aw = -aw
	}
	// (av << Frac) / aw with a 128-bit intermediate.
	hi := uint64(av) >> (64 - Frac)
	lo := uint64(av) << Frac
	q := div128(hi, lo, uint64(aw))
	if neg {
		return Val(-int64(q))
	}
	return Val(q)
}

// div128 divides the 128-bit value (hi<<64)|lo by d, returning the low 64
// bits of the quotient. The callers guarantee the quotient fits.
func div128(hi, lo, d uint64) uint64 {
	var q, r uint64
	for i := 127; i >= 0; i-- {
		r <<= 1
		var bit uint64
		if i >= 64 {
			bit = (hi >> (i - 64)) & 1
		} else {
			bit = (lo >> i) & 1
		}
		r |= bit
		if r >= d {
			r -= d
			if i < 64 {
				q |= 1 << i
			}
		}
	}
	return q
}

// Min returns the smaller of v and w.
func Min(v, w Val) Val {
	if v < w {
		return v
	}
	return w
}

// Max returns the larger of v and w.
func Max(v, w Val) Val {
	if v > w {
		return v
	}
	return w
}

// String formats the value with six decimal places, enough to distinguish
// adjacent representable values at 16 fractional bits.
func (v Val) String() string {
	return fmt.Sprintf("%.6f", v.Float())
}
