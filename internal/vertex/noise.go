package vertex

import (
	"fmt"
	"math"

	"dstress/internal/circuit"
)

// NoiseSpec describes the in-MPC Laplace noise generator. Following the
// circuit design of Dwork et al. [23] that the prototype uses (§5.1), the
// aggregation MPC draws a *discrete* Laplace (two-sided geometric) variable
// from uniform random bits contributed by the aggregation-block members:
//
//   - a biased coin with P(1) = α is one unsigned comparison of a
//     CoinBits-wide uniform word against the constant ⌊α·2^CoinBits⌋;
//   - a geometric variable Geo(α) is the number of leading 1s in a row of
//     Trials coins (a log-depth prefix-AND read out as a binary count);
//   - the difference of two independent geometric variables has the
//     two-sided geometric law — the discrete Laplace with parameter α.
//
// With α = exp(−ε/s·2^−Shift) the released aggregate is ε-differentially
// private for sensitivity s measured in units of 2^Shift raw LSBs. The
// runtime sets Shift to the program's fractional bits so noise is sampled
// at unit granularity of the aggregate value rather than per raw LSB,
// keeping Trials small; the truncation at Trials adds a failure probability
// of 2·α^(Trials+1), reported by TailBound.
type NoiseSpec struct {
	// Alpha is the per-unit decay parameter in (0,1); 0 disables noising.
	Alpha float64
	// Trials caps each geometric variable (the circuit is data-oblivious,
	// so the cap is structural, not data-dependent).
	Trials int
	// CoinBits is the precision of each biased coin.
	CoinBits int
	// Shift scales the sampled integer noise left by this many bits
	// (fractional-bit alignment).
	Shift int
}

// DefaultNoiseSpec returns a spec for the given ε and sensitivity (both in
// aggregate-value units), sized so the truncation tail is below 1e-9; vet a
// tenant's ε with CheckNoise first.
func DefaultNoiseSpec(epsilon, sensitivity float64, shift int) NoiseSpec {
	if epsilon <= 0 || sensitivity <= 0 {
		return NoiseSpec{}
	}
	alpha := math.Exp(-epsilon / sensitivity)
	return NoiseSpec{Alpha: alpha, Trials: int(noiseTrials(epsilon, sensitivity)), CoinBits: 24, Shift: shift}
}

// noiseTrials is DefaultNoiseSpec's Trials, ⌈ln(1e-9)/ln α⌉ ≈ 20.7·s/ε, at
// least 8. It is +Inf, not an overflowed int, for a vanishing ε, and when
// α rounds to 1 (ε below ≈ 1e-16·s), where a small sampler would add 0.
func noiseTrials(epsilon, sensitivity float64) float64 {
	t := math.Ceil(math.Log(1e-9) / math.Log(math.Exp(-epsilon/sensitivity)))
	if math.IsInf(t, -1) {
		return math.Inf(1)
	}
	return max(8, t)
}

// MaxNoiseTrials bounds the noise sampler a query may ask for: without it a
// tenant paying almost nothing (ε = 1e-6 at s = 10 asks for 2·10⁸ trials)
// makes every node compile a sampler of any size. 2¹³ admits ε ≥ 0.0025·s;
// Eisenberg–Noe (s = 10) at its usual ε = 0.23 needs 902.
const MaxNoiseTrials = 1 << 13

// NoiseSizeError refuses a privacy budget whose noise sampler would need
// Trials coin rows per geometric variable, more than MaxNoiseTrials.
type NoiseSizeError struct {
	Epsilon, Sensitivity float64
	Trials               float64
}

func (e *NoiseSizeError) Error() string {
	return fmt.Sprintf("vertex: epsilon %v at sensitivity %v needs a noise sampler of %.0f trials, above the bound of %d",
		e.Epsilon, e.Sensitivity, e.Trials, MaxNoiseTrials)
}

// CheckNoise returns a *NoiseSizeError when DefaultNoiseSpec(epsilon,
// sensitivity, ·) would exceed MaxNoiseTrials. It builds nothing, so it can
// vet a tenant's ε before anything is charged or compiled.
func CheckNoise(epsilon, sensitivity float64) error {
	if epsilon <= 0 || sensitivity <= 0 {
		return nil
	}
	if t := noiseTrials(epsilon, sensitivity); t > MaxNoiseTrials {
		return &NoiseSizeError{Epsilon: epsilon, Sensitivity: sensitivity, Trials: t}
	}
	return nil
}

// Enabled reports whether the spec actually adds noise.
func (n NoiseSpec) Enabled() bool { return n.Alpha > 0 && n.Trials > 0 }

// RandBits returns the number of uniform random input bits the noise
// circuit consumes (two geometric variables' worth of coins).
func (n NoiseSpec) RandBits() int {
	if !n.Enabled() {
		return 0
	}
	return 2 * n.Trials * n.CoinBits
}

// TailBound returns the probability that a single noise draw is truncated
// by the Trials cap.
func (n NoiseSpec) TailBound() float64 {
	if !n.Enabled() {
		return 0
	}
	return 2 * math.Pow(n.Alpha, float64(n.Trials+1))
}

// counterBits returns the width needed to count up to Trials.
func (n NoiseSpec) counterBits() int {
	b := 1
	for (1 << b) <= n.Trials {
		b++
	}
	return b
}

// Build appends the noise sampler to the circuit: rnd supplies RandBits()
// uniform bits, and the result is a width-bit signed word holding
// (Geo(α) − Geo(α)) << Shift.
func (n NoiseSpec) Build(b *circuit.Builder, rnd circuit.Word, width int) circuit.Word {
	if !n.Enabled() {
		return b.ConstWord(0, width)
	}
	if len(rnd) != n.RandBits() {
		panic("vertex: noise random-input width mismatch")
	}
	threshold := int64(n.Alpha * float64(uint64(1)<<n.CoinBits))
	g1 := n.buildGeometric(b, rnd[:n.Trials*n.CoinBits], threshold)
	g2 := n.buildGeometric(b, rnd[n.Trials*n.CoinBits:], threshold)
	cw := len(g1)
	diff := b.Sub(b.SignExtend(g1, cw+1), b.SignExtend(g2, cw+1))
	wide := b.SignExtend(diff, width)
	return b.ShiftLeftConst(wide, n.Shift)
}

// buildGeometric counts leading biased-coin successes over Trials coins.
// The running conjunctions of the coins are a Sklansky prefix-AND, so
// prefix[t] = 1 iff the count exceeds t: a thermometer code. Bit j of the
// count is then the XOR of prefix[k·2^j − 1] over k ≥ 1, a read-out with no
// AND gates. The count is exactly the number of leading successes, the
// variable TailBound and the privacy argument describe.
func (n NoiseSpec) buildGeometric(b *circuit.Builder, rnd circuit.Word, threshold int64) circuit.Word {
	thr := b.ConstWord(threshold, n.CoinBits)
	coins := make([]circuit.Wire, n.Trials)
	for t := range coins {
		u := rnd[t*n.CoinBits : (t+1)*n.CoinBits]
		coins[t] = b.LessU(u, thr) // P(u < ⌊α·2^w⌋) = α up to 2^-w
	}
	prefix := b.PrefixAnd(coins)
	count := make(circuit.Word, n.counterBits())
	for j := range count {
		count[j] = b.Zero()
		for m := 1 << j; m <= n.Trials; m += 1 << j {
			count[j] = b.Xor(count[j], prefix[m-1])
		}
	}
	return count
}
