package vertex

import (
	"math"

	"dstress/internal/circuit"
	"dstress/internal/dp"
)

// NoiseSpec describes the in-MPC Laplace noise generator. Following the
// circuit design of Dwork et al. [23] that the prototype uses (§5.1), the
// aggregation MPC draws a *discrete* Laplace (two-sided geometric) variable
// from uniform random bits contributed by the aggregation-block members:
//
//   - a geometric variable G with P[G = k] ∝ e^(−λk) has independent binary
//     digits, and digit j is one comparison of a uniform 64-bit word against
//     the constant t_j of dp.GeometricDigits(λ), the table the host's
//     dp.Geometric reads too;
//   - the difference of two independent geometric variables has the
//     two-sided geometric law — the discrete Laplace with parameter e^−λ.
//
// With λ = ε/s the released aggregate is ε-differentially private for
// sensitivity s measured in units of 2^Shift raw LSBs. The circuit releases
// (agg + (G1 − G2)·2^Shift) mod 2^width, which depends only on the digits
// below width − Shift, so it samples at most that many: any λ > 0 compiles
// to at most 2·64·(width − Shift) random input bits.
type NoiseSpec struct {
	// Lambda is the per-unit privacy loss ε/s; 0 disables noising.
	Lambda float64
	// Shift scales the sampled integer noise left by this many bits
	// (fractional-bit alignment).
	Shift int
}

// DefaultNoiseSpec returns the spec for the given ε and sensitivity (both
// in aggregate-value units). An ε so small that ε/s underflows still
// samples, at the smallest λ: every digit a fair coin.
func DefaultNoiseSpec(epsilon, sensitivity float64, shift int) NoiseSpec {
	if epsilon <= 0 || sensitivity <= 0 {
		return NoiseSpec{}
	}
	return NoiseSpec{Lambda: max(epsilon/sensitivity, math.SmallestNonzeroFloat64), Shift: shift}
}

// Enabled reports whether the spec actually adds noise.
func (n NoiseSpec) Enabled() bool { return n.Lambda > 0 }

// digits returns the thresholds of the digits a width-bit release depends
// on.
func (n NoiseSpec) digits(width int) dp.Digits {
	if !n.Enabled() || width <= n.Shift {
		return nil
	}
	d := dp.GeometricDigits(n.Lambda)
	return d[:min(len(d), width-n.Shift)]
}

// RandBits returns the number of uniform random input bits the noise
// circuit for a width-bit aggregate consumes: one 64-bit word per digit of
// each of the two geometric variables.
func (n NoiseSpec) RandBits(width int) int {
	return 2 * 64 * len(n.digits(width))
}

// Build appends the noise sampler to the circuit: rnd supplies
// RandBits(width) uniform bits, and the result is a width-bit word holding
// (G1 − G2)·2^Shift mod 2^width.
func (n NoiseSpec) Build(b *circuit.Builder, rnd circuit.Word, width int) circuit.Word {
	d := n.digits(width)
	if len(rnd) != 2*64*len(d) {
		panic("vertex: noise random-input width mismatch")
	}
	if len(d) == 0 {
		return b.ConstWord(0, width)
	}
	// G1 − G2 lies in (−2^m, 2^m) for m digits: m+1 bits hold it, unless
	// the release keeps fewer.
	cw := min(len(d)+1, width-n.Shift)
	g := [2]circuit.Word{b.ConstWord(0, cw), b.ConstWord(0, cw)}
	for i := range g {
		for j, t := range d {
			g[i][j] = below(b, rnd[(i*len(d)+j)*64:][:64], t)
		}
	}
	return b.ShiftLeftConst(b.SignExtend(b.Sub(g[0], g[1]), width), n.Shift)
}

// below returns [u < t] for a word u and a constant t by a balanced tree of
// (generate, propagate) pairs, ⌈log₂ len(u)⌉ ANDs deep: a span generates
// when u < t is decided inside it, and propagates when u equals t on all of
// it. A span whose generate is constant 0 (t has no 1 bit in it) needs no
// AND, and a propagate is built only where a generate to its right uses it.
func below(b *circuit.Builder, u circuit.Word, t uint64) circuit.Wire {
	var span func(lo, hi int, needP bool) (g, p circuit.Wire)
	span = func(lo, hi int, needP bool) (g, p circuit.Wire) {
		if hi-lo == 1 {
			if t>>lo&1 == 1 {
				return b.Not(u[lo]), u[lo]
			}
			return circuit.WireZero, b.Not(u[lo])
		}
		mid := (lo + hi) / 2
		gl, pl := span(lo, mid, needP)
		gh, ph := span(mid, hi, needP || gl != circuit.WireZero)
		// gh and ph are never both 1, so the OR is an XOR.
		g = b.Xor(gh, b.And(ph, gl))
		if needP {
			p = b.And(ph, pl)
		}
		return g, p
	}
	g, _ := span(0, len(u), false)
	return g
}
