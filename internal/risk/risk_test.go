package risk

import (
	"math"
	"testing"

	"dstress/internal/finnet"
	"dstress/internal/vertex"
)

// --- Plaintext Eisenberg–Noe ------------------------------------------------

func twoBankEN() *finnet.ENNetwork {
	// A owes B $10 but holds only $5: prorate_A = 0.5, TDS = $5.
	return &finnet.ENNetwork{
		N:    2,
		Cash: []float64{5, 0},
		Debt: [][]float64{{0, 10}, {0, 0}},
	}
}

func TestSolveENTwoBanks(t *testing.T) {
	res := SolveEN(twoBankEN(), 10, 1e-9)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.Prorate[0]-0.5) > 1e-9 {
		t.Errorf("prorate A = %v, want 0.5", res.Prorate[0])
	}
	if res.Prorate[1] != 1 {
		t.Errorf("prorate B = %v, want 1", res.Prorate[1])
	}
	if math.Abs(res.TDS-5) > 1e-9 {
		t.Errorf("TDS = %v, want 5", res.TDS)
	}
}

func TestSolveENNoDistress(t *testing.T) {
	net := &finnet.ENNetwork{
		N:    3,
		Cash: []float64{100, 100, 100},
		Debt: [][]float64{{0, 10, 5}, {3, 0, 2}, {1, 1, 0}},
	}
	res := SolveEN(net, 10, 1e-9)
	if res.TDS != 0 {
		t.Errorf("healthy network has TDS %v", res.TDS)
	}
	for i, p := range res.Prorate {
		if p != 1 {
			t.Errorf("bank %d prorate %v", i, p)
		}
	}
}

func TestSolveENCascade(t *testing.T) {
	// Chain: 0 owes 1 owes 2, each with thin cash; wiping 0's cash must
	// cascade into 1's ability to pay 2.
	net := &finnet.ENNetwork{
		N:    3,
		Cash: []float64{10, 2, 1},
		Debt: [][]float64{{0, 10, 0}, {0, 0, 10}, {0, 0, 0}},
	}
	healthy := SolveEN(net, 20, 1e-9)
	net.ApplyCashShock([]int{0}, 0)
	shocked := SolveEN(net, 20, 1e-9)
	if shocked.TDS <= healthy.TDS {
		t.Errorf("shock did not increase TDS: %v vs %v", shocked.TDS, healthy.TDS)
	}
	// Bank 1 is dragged down by 0's default: prorate_1 < 1.
	if shocked.Prorate[1] >= 1 {
		t.Errorf("no cascade: prorate_1 = %v", shocked.Prorate[1])
	}
}

func TestSolveENMonotoneInShock(t *testing.T) {
	top, _ := finnet.CorePeriphery(finnet.CorePeripheryParams{N: 30, Core: 6, D: 12, PeriLink: 2, Seed: 11})
	base := finnet.BuildEN(top, finnet.ENParams{CoreCash: 50, PeriCash: 8, CoreSize: 6, DebtScale: 30, Seed: 11})
	var prev float64 = -1
	for _, factor := range []float64{1.0, 0.5, 0.25, 0.0} {
		net := &finnet.ENNetwork{N: base.N, Cash: append([]float64{}, base.Cash...), Debt: base.Debt}
		net.ApplyCashShock([]int{0, 1, 2}, factor)
		tds := SolveEN(net, 64, 1e-9).TDS
		if prev >= 0 && tds < prev-1e-9 {
			t.Errorf("TDS not monotone in shock severity: %v after %v", tds, prev)
		}
		prev = tds
	}
}

func TestSolveENConvergesWithinN(t *testing.T) {
	// [25]: the fixpoint converges within N iterations.
	top, _ := finnet.CorePeriphery(finnet.CorePeripheryParams{N: 40, Core: 8, D: 16, PeriLink: 2, Seed: 4})
	net := finnet.BuildEN(top, finnet.ENParams{CoreCash: 20, PeriCash: 3, CoreSize: 8, DebtScale: 25, Seed: 4})
	net.ApplyCashShock([]int{0, 1}, 0)
	res := SolveEN(net, net.N, 1e-6)
	if !res.Converged {
		t.Errorf("EN did not converge within N=%d iterations", net.N)
	}
}

// --- Plaintext Elliott–Golub–Jackson ----------------------------------------

func TestSolveEGJHealthy(t *testing.T) {
	top, _ := finnet.CorePeriphery(finnet.CorePeripheryParams{N: 20, Core: 4, D: 10, PeriLink: 1, Seed: 2})
	net := finnet.BuildEGJ(top, finnet.EGJParams{
		CoreBase: 100, PeriBase: 10, CoreSize: 4,
		HoldingFrac: 0.05, ThresholdFrac: 0.8, PenaltyFrac: 0.2, Seed: 2,
	})
	res := SolveEGJ(net, 10)
	if res.TDS != 0 {
		t.Errorf("unshocked network has TDS %v", res.TDS)
	}
}

func TestSolveEGJPenaltyDiscontinuity(t *testing.T) {
	// Two banks holding each other: a base shock pushing bank 0 below
	// threshold triggers the penalty, deepening the shortfall beyond the
	// raw asset loss.
	net := &finnet.EGJNetwork{
		N:         2,
		Base:      []float64{100, 100},
		OrigVal:   []float64{110, 110},
		Holdings:  [][]float64{{0, 0.1}, {0.1, 0}},
		Threshold: []float64{100, 100},
		Penalty:   []float64{30, 30},
	}
	res := SolveEGJ(net, 10)
	if res.TDS != 0 {
		t.Fatalf("pre-shock TDS = %v", res.TDS)
	}
	net.ApplyBaseShock([]int{0}, 0.8) // lose 20: value_0 ≈ 91 < 100
	res = SolveEGJ(net, 10)
	if !res.Failed[0] {
		t.Fatal("bank 0 did not fail")
	}
	// Shortfall must exceed the raw 20-dollar asset loss − buffer (9):
	// the 30-dollar penalty deepens it.
	if res.TDS < 30 {
		t.Errorf("TDS = %v; penalty discontinuity missing", res.TDS)
	}
}

func TestSolveEGJContagionThroughHoldings(t *testing.T) {
	// Bank 1 holds much of bank 0; shocking 0 must damage 1 even though
	// 1's base assets are untouched.
	net := &finnet.EGJNetwork{
		N:         2,
		Base:      []float64{100, 50},
		OrigVal:   []float64{110, 105},
		Holdings:  [][]float64{{0, 0}, {0.5, 0}},
		Threshold: []float64{90, 95},
		Penalty:   []float64{10, 10},
	}
	net.ApplyBaseShock([]int{0}, 0.3)
	res := SolveEGJ(net, 10)
	if !res.Failed[1] {
		t.Errorf("holder bank did not fail; values %v", res.Value)
	}
}

// --- Circuit configuration ---------------------------------------------------

func TestCircuitConfigEncodeDecode(t *testing.T) {
	cfg := DefaultCircuitConfig()
	for _, dollars := range []float64{0, 1e6, -1e6, 2.5e9, 7.77e11} {
		raw, err := cfg.Encode(dollars)
		if err != nil {
			t.Fatalf("Encode(%v): %v", dollars, err)
		}
		back := cfg.Decode(raw)
		if math.Abs(back-dollars) > cfg.Unit/float64(1<<15) {
			t.Errorf("round trip %v -> %v", dollars, back)
		}
	}
	if _, err := cfg.Encode(1e14); err == nil {
		t.Error("out-of-range encode accepted")
	}
	if err := (CircuitConfig{Width: 10, Unit: 1}).Validate(); err == nil {
		t.Error("tiny width accepted")
	}
}

func TestSensitivities(t *testing.T) {
	if got := ENSensitivity(0.1); got != 10 {
		t.Errorf("ENSensitivity(0.1) = %v", got)
	}
	if got := EGJSensitivity(0.1); got != 20 {
		t.Errorf("EGJSensitivity(0.1) = %v", got)
	}
	cfg := DefaultCircuitConfig()
	// T = $1B at unit $1M: sensitivity 20 -> 20000 units.
	if got := ProgramSensitivity(20, 1e9, cfg); got != 20000 {
		t.Errorf("ProgramSensitivity = %v", got)
	}
}

func TestRecommendedIterations(t *testing.T) {
	cases := map[int]int{2: 1, 50: 6, 100: 7, 1750: 11}
	for n, want := range cases {
		if got := RecommendedIterations(n); got != want {
			t.Errorf("RecommendedIterations(%d) = %d, want %d", n, got, want)
		}
	}
}

// --- Program / reference agreement -------------------------------------------

func smallENNet(t *testing.T) *finnet.ENNetwork {
	t.Helper()
	// A six-bank debt chain with thin cash: wiping bank 0's reserves makes
	// shortfalls cascade down the chain, guaranteeing a positive TDS that
	// needs several iterations to settle.
	net := &finnet.ENNetwork{
		N:    6,
		Cash: []float64{5, 10, 10, 10, 10, 10},
		Debt: [][]float64{
			{0, 100, 0, 0, 0, 0},
			{0, 0, 80, 0, 0, 0},
			{0, 0, 0, 60, 0, 0},
			{0, 0, 0, 0, 40, 0},
			{0, 0, 0, 0, 0, 20},
			{0, 0, 0, 0, 0, 0},
		},
	}
	net.ApplyCashShock([]int{0}, 0)
	return net
}

func TestENGraphShape(t *testing.T) {
	cfg := CircuitConfig{Width: 32, Unit: 1}
	net := smallENNet(t)
	g, err := ENGraph(net, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != net.N {
		t.Fatalf("graph has %d vertices", g.N())
	}
	prog := ENProgram(cfg, 1, 0.1)
	for v := 0; v < g.N(); v++ {
		if len(g.Priv[v]) != prog.PrivBits(3) {
			t.Errorf("vertex %d priv bits %d, want %d", v, len(g.Priv[v]), prog.PrivBits(3))
		}
	}
	// Edges must mirror positive debts.
	for i := 0; i < net.N; i++ {
		for j := 0; j < net.N; j++ {
			if (net.Debt[i][j] > 0) != g.HasEdge(i, j) {
				t.Errorf("edge (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestENReferenceMatchesSolver(t *testing.T) {
	cfg := CircuitConfig{Width: 32, Unit: 1}
	net := smallENNet(t)
	prog := ENProgram(cfg, 1, 0.1)
	g, err := ENGraph(net, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 8
	raw, err := vertex.RunReference(prog, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	got := cfg.Decode(raw)
	want := SolveEN(net, iters+1, 0).TDS
	if math.Abs(got-want) > 0.05*want+0.5 {
		t.Errorf("circuit TDS = %v, solver TDS = %v", got, want)
	}
	if want <= 0 {
		t.Error("test scenario produced no shortfall; pick a harsher shock")
	}
}

func smallEGJNet(t *testing.T) *finnet.EGJNetwork {
	t.Helper()
	top, err := finnet.CorePeriphery(finnet.CorePeripheryParams{N: 6, Core: 2, D: 3, PeriLink: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	net := finnet.BuildEGJ(top, finnet.EGJParams{
		CoreBase: 60, PeriBase: 10, CoreSize: 2,
		HoldingFrac: 0.2, ThresholdFrac: 0.9, PenaltyFrac: 0.25, Seed: 13,
	})
	net.ApplyBaseShock([]int{0}, 0.3)
	return net
}

func TestEGJReferenceMatchesSolver(t *testing.T) {
	cfg := CircuitConfig{Width: 32, Unit: 1}
	net := smallEGJNet(t)
	prog := EGJProgram(cfg, 1, 0.1)
	g, err := EGJGraph(net, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 8
	raw, err := vertex.RunReference(prog, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	got := cfg.Decode(raw)
	want := SolveEGJ(net, iters+1).TDS
	if want <= 0 {
		t.Fatal("test scenario produced no shortfall")
	}
	if math.Abs(got-want) > 0.05*want+0.5 {
		t.Errorf("circuit TDS = %v, solver TDS = %v", got, want)
	}
}

func TestEGJGraphShape(t *testing.T) {
	cfg := CircuitConfig{Width: 32, Unit: 1}
	net := smallEGJNet(t)
	g, err := EGJGraph(net, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.N; i++ {
		for j := 0; j < net.N; j++ {
			if (net.Holdings[i][j] > 0) != g.HasEdge(j, i) {
				t.Errorf("holding (%d,%d) edge mismatch", i, j)
			}
		}
	}
}
