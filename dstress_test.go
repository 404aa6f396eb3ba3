package dstress_test

import (
	"context"
	"math"
	"testing"

	"dstress"
)

// The facade tests exercise the public API end to end the way the examples
// and a downstream user would, without touching internal packages.

func TestPublicAPIQuickstartFlow(t *testing.T) {
	net := &dstress.ENNetwork{
		N:    4,
		Cash: []float64{2, 5, 5, 5},
		Debt: [][]float64{
			{0, 50, 0, 0},
			{0, 0, 40, 0},
			{0, 0, 0, 30},
			{0, 0, 0, 0},
		},
	}
	net.ApplyCashShock([]int{0}, 0)
	truth := dstress.SolveEN(net, 16, 1e-9)
	if truth.TDS <= 0 {
		t.Fatal("scenario produced no shortfall")
	}

	cfg := dstress.CircuitConfig{Width: 32, Unit: 1}
	prog := dstress.ENProgram(cfg, 1, 0.1)
	graph, err := dstress.ENGraph(net, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	iters := dstress.RecommendedIterations(net.N) + 2
	exact, err := dstress.RunReference(prog, graph, iters)
	if err != nil {
		t.Fatal(err)
	}
	got := cfg.Decode(exact)
	if math.Abs(got-truth.TDS) > 0.05*truth.TDS+1 {
		t.Errorf("circuit TDS %v vs solver %v", got, truth.TDS)
	}

	eng := dstress.NewSimEngine(dstress.EngineConfig{
		Group: dstress.TestGroup(), K: 1, Alpha: 0.5, OTMode: dstress.OTDealer,
	})
	res, err := eng.Run(context.Background(), dstress.Job{Program: prog, Graph: graph, Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw != exact {
		t.Errorf("MPC result %d != reference %d", res.Raw, exact)
	}
	if rep := res.Report; rep.TotalBytes() <= 0 || rep.TotalTime() <= 0 {
		t.Error("report not populated")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	top, err := dstress.CorePeriphery(dstress.CorePeripheryParams{
		N: 30, Core: 6, D: 12, PeriLink: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	en := dstress.BuildEN(top, dstress.ENParams{CoreCash: 50, PeriCash: 5, CoreSize: 6, DebtScale: 20, Seed: 3})
	if en.N != 30 {
		t.Errorf("EN network N = %d", en.N)
	}
	egj := dstress.BuildEGJ(top, dstress.EGJParams{
		CoreBase: 50, PeriBase: 8, CoreSize: 6,
		HoldingFrac: 0.1, ThresholdFrac: 0.9, PenaltyFrac: 0.2, Seed: 3,
	})
	if res := dstress.SolveEGJ(egj, 8); res.TDS != 0 {
		t.Errorf("unshocked EGJ network has TDS %v", res.TDS)
	}
	if _, err := dstress.ScaleFree(dstress.ScaleFreeParams{N: 20, M: 2, D: 10, Seed: 1}); err != nil {
		t.Errorf("ScaleFree: %v", err)
	}
	if _, err := dstress.ErdosRenyi(dstress.ErdosRenyiParams{N: 20, P: 0.2, D: 10, Seed: 1}); err != nil {
		t.Errorf("ErdosRenyi: %v", err)
	}
}

func TestPublicAPIBudgets(t *testing.T) {
	up := dstress.DefaultUtilityParams()
	if q := up.QueriesPerYear(); q != 3 {
		t.Errorf("QueriesPerYear = %d", q)
	}
	eb := dstress.DefaultEdgeBudgetParams()
	if eb.Sensitivity() != 20 {
		t.Errorf("edge sensitivity = %d", eb.Sensitivity())
	}
	acc := dstress.NewAccountant(1.0)
	if err := acc.Spend(0.6); err != nil {
		t.Fatal(err)
	}
	if err := acc.Spend(0.6); err == nil {
		t.Error("overdraw allowed")
	}
}

func TestPublicAPICustomProgram(t *testing.T) {
	// A user-defined vertex program through the facade (mirrors
	// examples/private_degree_sum).
	prog := &dstress.Program{
		Name: "edge-count", StateBits: 8, MsgBits: 8, AggBits: 16,
		Sensitivity: 1,
		PrivBits:    func(D int) int { return 1 },
		BuildUpdate: func(b *dstress.CircuitBuilder, D int, state, priv dstress.Word, msgs []dstress.Word) (dstress.Word, []dstress.Word) {
			acc := b.ConstWord(0, 8)
			for _, m := range msgs {
				acc = b.Add(acc, m)
			}
			out := make([]dstress.Word, D)
			for d := range out {
				out[d] = b.ConstWord(1, 8)
			}
			return acc, out
		},
		BuildAggregate: func(b *dstress.CircuitBuilder, states []dstress.Word) dstress.Word {
			acc := b.ConstWord(0, 16)
			for _, s := range states {
				acc = b.Add(acc, b.ZeroExtend(s, 16))
			}
			return acc
		},
	}
	g := dstress.NewGraph(4, 2)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 4; v++ {
		g.Priv[v] = []uint8{0}
	}
	count, err := dstress.RunReference(prog, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("edge count = %d, want 4", count)
	}
}

func TestEncodeDecodeWordFacade(t *testing.T) {
	bits := dstress.EncodeWord(-1234, 16)
	if got := dstress.DecodeWordS(bits); got != -1234 {
		t.Errorf("round trip = %d", got)
	}
}
