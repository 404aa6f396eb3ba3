// Package dp implements the differential-privacy machinery of DStress.
//
// Three mechanisms appear in the paper:
//
//   - The Laplace mechanism (§3) noising the final aggregate: the output of
//     the aggregation function A receives noise drawn from Lap(s/ε), where s
//     is the program's sensitivity bound.
//   - Dollar-differential privacy (§4.1, following Flood et al.): data sets
//     are similar if they differ by reallocating at most T dollars in one
//     portfolio, so the noise scale becomes T·s/ε in dollars.
//   - The two-sided geometric mechanism (§3.5, Appendix B) protecting edge
//     privacy inside the message-transfer protocol: node i homomorphically
//     adds 2·Geo(α^(2/Δ)) to each encrypted bit sum, with sensitivity
//     Δ = k+1.
//
// The package also implements the budget accounting of §4.5 and Appendix B:
// how much ε a query costs for a target accuracy, how many runs per year a
// budget of ln 2 sustains, the table-overflow failure probability P_fail,
// and the largest α compatible with a target failure rate.
package dp

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ---------------------------------------------------------------------------
// Randomness
// ---------------------------------------------------------------------------

// Source yields uniform 64-bit words. It abstracts the randomness so tests
// can substitute a deterministic stream; production code uses
// CryptoSource.
type Source interface {
	// Uint64s fills dst with independent uniform words.
	Uint64s(dst []uint64)
}

// CryptoSource draws from crypto/rand.
type CryptoSource struct{}

// Uint64s fills dst from crypto/rand in one read.
func (CryptoSource) Uint64s(dst []uint64) {
	b := make([]byte, 8*len(dst))
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("dp: entropy failure: %v", err))
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// ---------------------------------------------------------------------------
// Laplace tail
// ---------------------------------------------------------------------------

// LaplaceTail returns P(|Lap(b)| > t), the two-sided tail probability.
func LaplaceTail(b, t float64) float64 {
	return math.Exp(-t / b)
}

// ---------------------------------------------------------------------------
// Geometric mechanism (Ghosh–Roughgarden–Sundararajan)
// ---------------------------------------------------------------------------

// maxDigits bounds a digit table, so that a geometric variable and the
// difference of two fit an int64.
const maxDigits = 63

// Digits is the table both geometric samplers share: the host's Geometric
// and the aggregation circuit's noise (vertex.NoiseSpec). A one-sided
// geometric variable G with P[G = k] ∝ e^(−λk) has independent binary
// digits: digit j is 1 with probability 1/(1 + e^(2^j·λ)). Entry j is that
// probability as a threshold on a uniform 64-bit word,
// t_j = ⌊2^64 / (1 + e^(2^j·λ))⌋, so digit j is [u_j < t_j]. It is
// computed from λ with one exp per digit, never by squaring e^−λ. The
// table ends at the first t_j that is 0, where the exact law puts
// e^(−2^j·λ) ≈ 2^−64 on G ≥ 2^j, or at maxDigits. TestGeometricDigitsExact
// bounds the privacy loss of the law the thresholds realize.
type Digits []uint64

// GeometricDigits returns the digit table for the per-unit loss λ > 0; an
// infinite λ (no noise) gives an empty table.
func GeometricDigits(lambda float64) Digits {
	if !(lambda > 0) {
		panic("dp: geometric loss must be positive")
	}
	d := make(Digits, 0, maxDigits)
	for j := 0; j < maxDigits; j++ {
		t := uint64(math.Ldexp(1/(1+math.Exp(math.Ldexp(lambda, j))), 64))
		if t == 0 {
			break
		}
		d = append(d, t)
	}
	return d
}

// Sample returns the variable the coin words u (one per digit) select:
// the sum of 2^j over the digits j with u[j] < t_j.
func (d Digits) Sample(u []uint64) int64 {
	var g int64
	for j, t := range d {
		if u[j] < t {
			g |= 1 << j
		}
	}
	return g
}

// Geometric fills y with independent draws from the two-sided geometric
// distribution with per-unit loss λ > 0, P[Y = d] = (1−α)/(1+α) · α^|d|
// with α = e^−λ, over all integers. It is the discrete analogue of the
// Laplace distribution, and ε-DP for a sensitivity-1 integer query with
// ε = λ; DStress's transfer protocol adds 2·Geo to the bit-share sums
// (§3.5).
//
// Each draw is G1 − G2 for two independent one-sided variables, each read
// from its own coin words through the digit table; the coin words of every
// draw come from one call to src.
func Geometric(src Source, lambda float64, y []int64) {
	d := GeometricDigits(lambda)
	m := len(d)
	u := make([]uint64, 2*m*len(y))
	src.Uint64s(u)
	for i := range y {
		w := u[2*m*i:]
		y[i] = d.Sample(w[:m]) - d.Sample(w[m:2*m])
	}
}

// TransferNoise fills e with the even noise terms 2·Geo(α^(2/Δ)) that node
// i adds to the encrypted bit sums of a transfer, with Δ = k+1 (§3.5, final
// protocol; Appendix B's release mechanism Mech): per-unit loss
// λ = −(2/Δ)·ln α.
func TransferNoise(src Source, alpha float64, k int, e []int64) {
	Geometric(src, -2*math.Log(alpha)/float64(k+1), e)
	for i := range e {
		e[i] *= 2
	}
}

// GeometricTail returns P(|Geo(α)| > m) = 2·α^(m+1)/(1+α), the exact
// two-sided tail of the geometric distribution. Appendix B uses the slightly
// looser closed form (2α^(Nl/2)+α−1)/(1+α); for α→1 the two agree to within
// (1−α), and both reproduce the paper's concrete example.
func GeometricTail(alpha float64, m int64) float64 {
	return 2 * math.Pow(alpha, float64(m+1)) / (1 + alpha)
}

// ---------------------------------------------------------------------------
// Budget accounting (§4.5)
// ---------------------------------------------------------------------------

// ErrBudgetExhausted reports an attempt to spend more privacy budget than
// remains.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Accountant tracks consumption of an ε budget under sequential composition.
// DStress keeps one accountant per data set; §4.5 replenishes it annually
// because banks must disclose aggregate positions each year anyway.
type Accountant struct {
	mu     sync.Mutex
	budget float64
	spent  float64
}

// NewAccountant creates an accountant with the given total ε budget. A
// zero budget is allowed and refuses every positive spend — a tenant
// pinned to "no queries".
func NewAccountant(budget float64) *Accountant {
	if budget < 0 || math.IsNaN(budget) {
		panic("dp: budget must be non-negative")
	}
	return &Accountant{budget: budget}
}

// Spend consumes eps from the budget, failing atomically if it would
// overdraw.
func (a *Accountant) Spend(eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		// NaN must be rejected explicitly: it compares false against the
		// budget below, so letting it through would both approve the query
		// and poison `spent`, disabling enforcement forever.
		return fmt.Errorf("dp: cannot spend invalid epsilon %v", eps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent+eps > a.budget+1e-12 {
		return fmt.Errorf("%w: spent %.4g of %.4g, requested %.4g",
			ErrBudgetExhausted, a.spent, a.budget, eps)
	}
	a.spent += eps
	return nil
}

// Remaining returns the unspent budget.
func (a *Accountant) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget - a.spent
}

// Spent returns the consumed budget.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Budget returns the total ε budget (spent + remaining).
func (a *Accountant) Budget() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// Replenish resets consumption to zero (§4.5: the budget is replenished once
// per year when aggregate positions become public).
func (a *Accountant) Replenish() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent = 0
}

// ---------------------------------------------------------------------------
// Utility calculations (§4.5)
// ---------------------------------------------------------------------------

// UtilityParams captures the policy inputs of §4.5.
type UtilityParams struct {
	// EpsilonMax is the total annual budget; the paper argues for ln 2
	// ("no adversary doubles their confidence in any fact").
	EpsilonMax float64
	// GranularityDollars is T, the protected reallocation size
	// ($1 billion in the paper).
	GranularityDollars float64
	// Sensitivity is the program's sensitivity bound (2/r for EGJ, 1/r for
	// EN, §4.4).
	Sensitivity float64
	// AccuracyDollars is the acceptable noise magnitude (±$200 billion).
	AccuracyDollars float64
	// Confidence is the probability the noise stays within AccuracyDollars
	// (0.95 in the paper).
	Confidence float64
}

// DefaultUtilityParams returns the §4.5 worked example: ε_max = ln 2,
// T = $1B, EGJ sensitivity 2/r with r = 0.1, accuracy ±$200B at 95%.
func DefaultUtilityParams() UtilityParams {
	return UtilityParams{
		EpsilonMax:         math.Ln2,
		GranularityDollars: 1e9,
		Sensitivity:        2 / 0.1,
		AccuracyDollars:    200e9,
		Confidence:         0.95,
	}
}

// EpsilonPerQuery returns the smallest ε_query such that the Laplace noise
// T·Lap(s/ε) stays below AccuracyDollars with the requested confidence
// (one-sided tail, matching the paper's ε ≥ 0.23 for the default
// parameters).
func (p UtilityParams) EpsilonPerQuery() float64 {
	// P(Lap(b) > t) = 0.5·exp(-t/b) ≤ 1-Confidence, with b = T·s/ε and
	// t = AccuracyDollars. Solve for ε.
	t := p.AccuracyDollars / p.GranularityDollars // in units of T
	tail := 1 - p.Confidence
	return p.Sensitivity / t * math.Log(0.5/tail)
}

// QueriesPerYear returns how many queries at EpsilonPerQuery fit inside
// EpsilonMax (the paper's "up to 3 times per year").
func (p UtilityParams) QueriesPerYear() int {
	return int(p.EpsilonMax / p.EpsilonPerQuery())
}

// NoiseScaleDollars returns the dollar scale of the Laplace noise added to
// the TDS for a query at ε_query.
func (p UtilityParams) NoiseScaleDollars(epsQuery float64) float64 {
	return p.GranularityDollars * p.Sensitivity / epsQuery
}

// ---------------------------------------------------------------------------
// Edge-privacy budget (Appendix B)
// ---------------------------------------------------------------------------

// EdgeBudgetParams are the deployment constants of Appendix B's concrete
// example.
type EdgeBudgetParams struct {
	K          int   // collusion bound k (block size k+1)
	L          int   // bit-length of transferred messages
	D          int   // degree bound
	N          int   // number of nodes
	Iterations int   // iterations per run (I)
	RunsPerYr  int   // runs per year (R)
	Years      int   // years of operation (Y)
	TableSize  int64 // lookup-table entries (N_l)
}

// DefaultEdgeBudgetParams returns Appendix B's concrete instantiation:
// k = 19 (blocks of 20), L = 16, D = 100, N = 1750, I = 11, R = 3, Y = 10,
// and an 8 GB lookup table of 384-bit entries (~230M entries... the paper's
// arithmetic; experiment E10 prints the budget it yields).
func DefaultEdgeBudgetParams() EdgeBudgetParams {
	return EdgeBudgetParams{
		K: 19, L: 16, D: 100, N: 1750, Iterations: 11, RunsPerYr: 3, Years: 10,
		TableSize: 230_000_000,
	}
}

// TotalTransfers returns N_q = Y·R·I·N·D·L·(k+1)², the number of bit-share
// transfers over the system's lifetime.
func (p EdgeBudgetParams) TotalTransfers() float64 {
	return float64(p.Years) * float64(p.RunsPerYr) * float64(p.Iterations) *
		float64(p.N) * float64(p.D) * float64(p.L) * float64((p.K+1)*(p.K+1))
}

// Sensitivity returns Δ = k+1: each of the k+1 bit shares sent from block
// B_i can flip by at most one when an edge changes.
func (p EdgeBudgetParams) Sensitivity() int { return p.K + 1 }

// PFail returns the probability that a single transfer's noised sum falls
// outside a lookup table with N_l entries, P(|Geo(α)| > N_l/2).
func (p EdgeBudgetParams) PFail(alpha float64) float64 {
	return GeometricTail(alpha, p.TableSize/2)
}

// AlphaMax returns the largest α (most noise, best privacy) such that the
// failure probability stays below 1/N_q — i.e. the system fails to decrypt
// at most once over its lifetime in expectation. Solved by bisection on the
// exact tail formula.
func (p EdgeBudgetParams) AlphaMax() float64 {
	target := 1 / p.TotalTransfers()
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if p.PFail(mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// EpsilonPerIteration returns the edge-privacy budget consumed by one
// DStress iteration: the adversary observes k·(k+1)·L noised sums per edge
// per iteration, each ε-DP with ε = -ln α (Appendix B).
func (p EdgeBudgetParams) EpsilonPerIteration(alpha float64) float64 {
	eps := -math.Log(alpha)
	return float64(p.K) * float64(p.K+1) * float64(p.L) * eps
}

// EpsilonPerYear returns the annual edge-privacy consumption,
// R·I·EpsilonPerIteration (the paper's 0.0469 for the default parameters).
func (p EdgeBudgetParams) EpsilonPerYear(alpha float64) float64 {
	return float64(p.RunsPerYr) * float64(p.Iterations) * p.EpsilonPerIteration(alpha)
}
