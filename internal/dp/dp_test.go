package dp

import (
	"encoding/binary"
	"io"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ReaderSource adapts an io.Reader (a seeded stream) to Source.
type ReaderSource struct{ R io.Reader }

func (s ReaderSource) Uint64s(dst []uint64) {
	b := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(s.R, b); err != nil {
		panic(err)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// seeded returns a deterministic Source.
func seeded(seed int64) Source { return ReaderSource{R: rand.New(rand.NewSource(seed))} }

// draw returns one Geometric draw.
func draw(src Source, lambda float64) int64 {
	var y [1]int64
	Geometric(src, lambda, y[:])
	return y[0]
}

// laplace draws Lap(b) by inverse CDF: the oracle TestLaplaceTails checks
// LaplaceTail against.
func laplace(r *rand.Rand, b float64) float64 {
	u := r.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

func TestUniformInRange(t *testing.T) {
	// CryptoSource fills every word it is handed: a word left 0 would be a
	// coin that always succeeds.
	for _, n := range []int{1, 14, 1008} {
		u := make([]uint64, n)
		CryptoSource{}.Uint64s(u)
		for i, w := range u {
			if w == 0 {
				t.Fatalf("%d words: word %d is 0", n, i)
			}
		}
	}
}

func TestLaplaceTails(t *testing.T) {
	// Empirical tail should match the analytic formula.
	r := rand.New(rand.NewSource(1))
	const n = 100000
	const b, thresh = 2.0, 4.0
	count := 0
	for i := 0; i < n; i++ {
		if math.Abs(laplace(r, b)) > thresh {
			count++
		}
	}
	want := LaplaceTail(b, thresh)
	got := float64(count) / n
	if math.Abs(got-want) > 0.02 {
		t.Errorf("tail = %v, want ~%v", got, want)
	}
}

func TestGeometricDistribution(t *testing.T) {
	// Check P[Y=0] = (1-α)/(1+α) and symmetry for α = 0.5.
	src := CryptoSource{}
	const n = 200000
	const alpha = 0.5
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		counts[draw(src, math.Ln2)]++
	}
	p0 := float64(counts[0]) / n
	want0 := (1 - alpha) / (1 + alpha)
	if math.Abs(p0-want0) > 0.01 {
		t.Errorf("P[Y=0] = %v, want ~%v", p0, want0)
	}
	for _, d := range []int64{1, 2, 3} {
		pd := float64(counts[d]) / n
		pm := float64(counts[-d]) / n
		want := want0 * math.Pow(alpha, float64(d))
		if math.Abs(pd-want) > 0.01 || math.Abs(pm-want) > 0.01 {
			t.Errorf("P[Y=±%d] = %v/%v, want ~%v", d, pd, pm, want)
		}
	}
}

// TestGeometricChiSquare checks Geometric against the closed-form pmf
// (1−α)/(1+α)·α^|d|, α = e^−λ, with Pearson's χ² over every d whose
// expected count is at least 20 and the two tails pooled. The stream is
// seeded, so the statistic is a fixed number; the bound is the mean plus
// five standard deviations of χ².
func TestGeometricChiSquare(t *testing.T) {
	for _, lambda := range []float64{0.023, 0.462, 2} {
		const n = 200000
		alpha := math.Exp(-lambda)
		pmf := func(d int64) float64 { return (1 - alpha) / (1 + alpha) * math.Pow(alpha, math.Abs(float64(d))) }
		var max int64
		for n*pmf(max+1) >= 20 {
			max++
		}
		y := make([]int64, n)
		Geometric(seeded(1), lambda, y)
		counts := make(map[int64]int)
		for _, d := range y {
			if d > max || d < -max {
				d = max + 1 // the pooled tails
			}
			counts[d]++
		}
		var chi2 float64
		for d := -max; d <= max+1; d++ {
			e := n * pmf(d)
			if d == max+1 {
				e = n * GeometricTail(alpha, max)
			}
			o := float64(counts[d])
			chi2 += (o - e) * (o - e) / e
		}
		df := float64(2*max + 1)
		if bound := df + 5*math.Sqrt(2*df); chi2 > bound {
			t.Errorf("λ = %v: χ² = %.1f over %v degrees of freedom, want ≤ %.1f", lambda, chi2, df, bound)
		}
	}
}

// TestGeometricDigitsExact computes, in exact arithmetic, the law of G that
// the shipped thresholds realize: P̃(k) = Π_j (k_j = 1 ? t_j : 2^64 − t_j)
// / 2^(64m) for k < 2^m, and 0 beyond. It checks the privacy loss of each
// unit step, |ln P̃(k)/P̃(k+1)| ≤ λ + 2^−24, for every k outside a set of
// mass at most 1e−12, and that the table truncates at most 2^−60 of the
// exact law's mass.
//
// The released noise is G1 − G2 for independent copies of G, and
// P[G1 − G2 = d] = Σ_b P̃(b)·P̃(d + b) is a mixture, over b, of shifts of
// G1's pmf. A bound P̃(k) ≤ e^(λ+η)·P̃(k+1), and its reverse, that holds
// for every k outside the excluded set therefore holds term by term for
// each step d → d+1 of the difference, apart from terms whose total mass
// is at most the excluded set's.
func TestGeometricDigitsExact(t *testing.T) {
	// 0.023 is ε/s of the EN workloads (ε = 0.23, s = 10); 0.462 is the
	// transfers' −ln α′ with α′ = 0.5^(2/3).
	for _, lambda := range []float64{0.023, 0.1, 0.001, 0.462, 2} {
		d := GeometricDigits(lambda)
		m := len(d)
		if tail := math.Exp(-math.Ldexp(lambda, m)); m == maxDigits || tail > 0x1p-60 {
			t.Fatalf("λ = %v: %d digits truncate %g of the exact law", lambda, m, tail)
		}
		prec := uint(64*m + 64) // every product below is exact
		two64 := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), 64)
		p := []*big.Float{new(big.Float).SetPrec(prec).SetInt64(1)}
		for _, tj := range d {
			one := new(big.Float).SetPrec(prec).SetUint64(tj)
			zero := new(big.Float).SetPrec(prec).Sub(two64, one)
			next := make([]*big.Float, 2*len(p))
			for k, pk := range p {
				next[k] = new(big.Float).SetPrec(prec).Mul(pk, zero)
				next[k+len(p)] = new(big.Float).SetPrec(prec).Mul(pk, one)
			}
			p = next
		}
		mass := func(k int) float64 {
			v, _ := new(big.Float).SetMantExp(p[k], -64*m).Float64()
			return v
		}
		var excluded, worst float64
		for k := range p {
			if k+1 == len(p) { // P̃(2^m) = 0
				excluded += mass(k)
				continue
			}
			r, _ := new(big.Float).Quo(p[k], p[k+1]).Float64()
			excess := math.Abs(math.Log(r)) - lambda
			if excess > 0x1p-24 {
				excluded += mass(k) + mass(k+1)
				continue
			}
			worst = math.Max(worst, excess)
		}
		if excluded > 1e-12 {
			t.Errorf("λ = %v: the per-step bound fails on mass %g, want ≤ 1e-12", lambda, excluded)
		}
		t.Logf("λ = %v: %d digits, worst excess 2^%.1f, excluded mass %.2g", lambda, m, math.Log2(worst), excluded)
	}
}

func TestGeometricDigitsTable(t *testing.T) {
	for _, lambda := range []float64{1e-300, 1e-6, 0.023, 2, 50} {
		d := GeometricDigits(lambda)
		for j, tj := range d {
			if tj == 0 || tj > 1<<63 || (j > 0 && tj > d[j-1]) {
				t.Fatalf("λ = %v: digit %d threshold %#x out of order", lambda, j, tj)
			}
		}
	}
	// A vanishing λ keeps every digit a fair coin, up to the int64 bound.
	if d := GeometricDigits(1e-300); len(d) != maxDigits || d[maxDigits-1] != 1<<63 {
		t.Errorf("λ = 1e-300: %d digits, last %#x", len(d), d[len(d)-1])
	}
	if d := GeometricDigits(math.Inf(1)); len(d) != 0 {
		t.Errorf("λ = +Inf: %d digits, want none", len(d))
	}
}

func TestGeometricPanicsOnBadAlpha(t *testing.T) {
	// α = e^−λ must lie in (0,1): λ in (0, ∞].
	for _, lambda := range []float64{0, -0.5, math.Inf(-1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for λ = %v", lambda)
				}
			}()
			draw(CryptoSource{}, lambda)
		}()
	}
}

func TestTransferNoiseEven(t *testing.T) {
	e := make([]int64, 1000)
	TransferNoise(CryptoSource{}, 0.5, 19, e)
	for _, n := range e {
		if n%2 != 0 {
			t.Fatalf("transfer noise %d is odd; parity-based recovery would break", n)
		}
	}
}

func TestGeometricTailMatchesEmpirical(t *testing.T) {
	src := CryptoSource{}
	const n = 200000
	const alpha = 0.8
	const m = 5
	count := 0
	for i := 0; i < n; i++ {
		v := draw(src, -math.Log(alpha))
		if v > m || v < -m {
			count++
		}
	}
	want := GeometricTail(alpha, m)
	got := float64(count) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("tail = %v, want ~%v", got, want)
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(1.0)
	if err := a.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Spent()-0.8) > 1e-12 || math.Abs(a.Remaining()-0.2) > 1e-12 {
		t.Errorf("spent/remaining = %v/%v", a.Spent(), a.Remaining())
	}
	if err := a.Spend(0.3); err == nil {
		t.Error("overdraw permitted")
	}
	// Failed spend must not consume budget.
	if math.Abs(a.Spent()-0.8) > 1e-12 {
		t.Errorf("failed spend mutated accountant: %v", a.Spent())
	}
	if err := a.Spend(-1); err == nil {
		t.Error("negative spend permitted")
	}
	a.Replenish()
	if a.Spent() != 0 {
		t.Error("replenish did not reset")
	}
	if err := a.Spend(1.0); err != nil {
		t.Errorf("full budget spend after replenish failed: %v", err)
	}
}

func TestUtilityPaperNumbers(t *testing.T) {
	// §4.5: ε_query ≥ 0.23, about 3 runs per year.
	p := DefaultUtilityParams()
	eps := p.EpsilonPerQuery()
	if math.Abs(eps-0.2303) > 0.005 {
		t.Errorf("EpsilonPerQuery = %v, paper says ~0.23", eps)
	}
	if got := p.QueriesPerYear(); got != 3 {
		t.Errorf("QueriesPerYear = %d, paper says 3", got)
	}
	// Noise scale at ε = 0.23 is T·20/0.23 ≈ $87B.
	scale := p.NoiseScaleDollars(eps)
	if scale < 80e9 || scale > 95e9 {
		t.Errorf("NoiseScaleDollars = %v", scale)
	}
}

func TestEdgeBudgetPaperNumbers(t *testing.T) {
	// Appendix B: N_q ≈ 370 billion, ε = 2.34e-7 per transfer, 0.0014 per
	// iteration, 0.0469 per year.
	p := DefaultEdgeBudgetParams()

	nq := p.TotalTransfers()
	if nq < 350e9 || nq > 380e9 {
		t.Errorf("TotalTransfers = %g, paper says ~370 billion", nq)
	}
	if p.Sensitivity() != 20 {
		t.Errorf("Sensitivity = %d, want 20", p.Sensitivity())
	}

	alpha := p.AlphaMax()
	eps := -math.Log(alpha)
	if eps < 1.8e-7 || eps > 3.2e-7 {
		t.Errorf("per-transfer epsilon = %g, paper says ~2.34e-7", eps)
	}

	perIter := p.EpsilonPerIteration(alpha)
	if perIter < 0.0010 || perIter > 0.0020 {
		t.Errorf("EpsilonPerIteration = %g, paper says ~0.0014", perIter)
	}

	perYear := p.EpsilonPerYear(alpha)
	if perYear < 0.035 || perYear > 0.065 {
		t.Errorf("EpsilonPerYear = %g, paper says ~0.0469", perYear)
	}

	// The chosen alpha must satisfy the failure bound.
	if p.PFail(alpha) > 1/nq*1.0001 {
		t.Errorf("PFail(alphaMax) = %g exceeds 1/Nq = %g", p.PFail(alpha), 1/nq)
	}
}

func TestAlphaMaxMonotone(t *testing.T) {
	// A bigger lookup table tolerates more noise: alphaMax must grow with
	// TableSize.
	p := DefaultEdgeBudgetParams()
	small := p
	small.TableSize = p.TableSize / 10
	if !(small.AlphaMax() < p.AlphaMax()) {
		t.Errorf("alphaMax not monotone in table size: %v vs %v",
			small.AlphaMax(), p.AlphaMax())
	}
}

func TestReaderSourceDeterministic(t *testing.T) {
	a, b := seeded(7), seeded(7)
	for i := 0; i < 100; i++ {
		if x, y := draw(a, 0.1), draw(b, 0.1); x != y {
			t.Fatalf("draw %d: one seed produced %d and %d", i, x, y)
		}
	}
}

func BenchmarkTransferNoise(b *testing.B) {
	// One relay's noise at K = 1, L = 24: 48 draws at α′ = 0.5.
	e := make([]int64, 48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TransferNoise(CryptoSource{}, 0.5, 1, e)
	}
}
