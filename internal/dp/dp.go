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
	"io"
	"math"
	"sync"
)

// ---------------------------------------------------------------------------
// Randomness
// ---------------------------------------------------------------------------

// Source yields uniform float64s in (0,1). It abstracts the randomness so
// tests can substitute a deterministic stream; production code uses
// CryptoSource.
type Source interface {
	Uniform() float64
}

// CryptoSource draws from crypto/rand.
type CryptoSource struct{}

// Uniform returns a uniform float64 in (0,1) with 53 bits of precision.
func (CryptoSource) Uniform() float64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("dp: entropy failure: %v", err))
	}
	u := binary.LittleEndian.Uint64(b[:]) >> 11 // 53 bits
	return (float64(u) + 0.5) / (1 << 53)
}

// ReaderSource adapts an io.Reader (e.g. a seeded PRG) to Source.
type ReaderSource struct{ R io.Reader }

// Uniform reads 8 bytes and maps them to (0,1).
func (s ReaderSource) Uniform() float64 {
	var b [8]byte
	if _, err := io.ReadFull(s.R, b[:]); err != nil {
		panic(fmt.Sprintf("dp: reading randomness: %v", err))
	}
	u := binary.LittleEndian.Uint64(b[:]) >> 11
	return (float64(u) + 0.5) / (1 << 53)
}

// ---------------------------------------------------------------------------
// Laplace mechanism
// ---------------------------------------------------------------------------

// Laplace draws one sample from the Laplace distribution with scale b,
// centred at zero, via inverse-CDF sampling.
func Laplace(src Source, b float64) float64 {
	u := src.Uniform() - 0.5
	sign := 1.0
	if u < 0 {
		sign = -1.0
		u = -u
	}
	return -b * sign * math.Log(1-2*u)
}

// LaplaceMechanism releases value + Lap(sensitivity/epsilon): the standard
// ε-DP release for a query with the given global sensitivity.
func LaplaceMechanism(src Source, value, sensitivity, epsilon float64) float64 {
	if epsilon <= 0 {
		panic("dp: epsilon must be positive")
	}
	if sensitivity < 0 {
		panic("dp: sensitivity must be non-negative")
	}
	return value + Laplace(src, sensitivity/epsilon)
}

// LaplaceTail returns P(|Lap(b)| > t), the two-sided tail probability.
func LaplaceTail(b, t float64) float64 {
	return math.Exp(-t / b)
}

// LaplaceUpperTail returns P(Lap(b) > t), the one-sided tail.
func LaplaceUpperTail(b, t float64) float64 {
	return 0.5 * math.Exp(-t/b)
}

// ---------------------------------------------------------------------------
// Geometric mechanism (Ghosh–Roughgarden–Sundararajan)
// ---------------------------------------------------------------------------

// Geometric draws from the two-sided geometric distribution with parameter
// α ∈ (0,1): P[Y = d] = (1-α)/(1+α) · α^|d|, over all integers. It is the
// discrete analogue of the Laplace distribution; DStress's transfer protocol
// adds 2·Geo to the bit-share sums (§3.5).
//
// The sample is produced as the difference of two one-sided geometric
// variables: if G1, G2 are i.i.d. with P[G = k] = (1-α)·α^k, then G1−G2 has
// exactly the two-sided law above.
func Geometric(src Source, alpha float64) int64 {
	if alpha <= 0 || alpha >= 1 {
		panic("dp: geometric parameter must lie in (0,1)")
	}
	return oneSidedGeo(src, alpha) - oneSidedGeo(src, alpha)
}

// oneSidedGeo samples P[G = k] = (1-α)·α^k, k ≥ 0, by inverse CDF.
func oneSidedGeo(src Source, alpha float64) int64 {
	u := src.Uniform()
	// G = floor(log(1-u) / log(alpha)); 1-u is uniform too, use u directly.
	g := math.Floor(math.Log(u) / math.Log(alpha))
	if g < 0 {
		return 0
	}
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return int64(g)
}

// GeometricMechanism releases value + Geo(α^(1/Δ)) for an integer query with
// sensitivity Δ, which is ε-DP with ε = -ln α (Appendix B).
func GeometricMechanism(src Source, value int64, sensitivity int64, alpha float64) int64 {
	if sensitivity < 1 {
		panic("dp: geometric sensitivity must be at least 1")
	}
	return value + Geometric(src, math.Pow(alpha, 1/float64(sensitivity)))
}

// TransferNoise draws the even noise term 2·Geo(α^(2/Δ)) that node i adds to
// each encrypted bit sum during a transfer, with Δ = k+1 (§3.5, final
// protocol; Appendix B's release mechanism Mech).
func TransferNoise(src Source, alpha float64, k int) int64 {
	delta := float64(k + 1)
	return 2 * Geometric(src, math.Pow(alpha, 2/delta))
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
