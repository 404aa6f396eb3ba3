package risk

import (
	"testing"

	"dstress/internal/circuit"
	"dstress/internal/finnet"
	"dstress/internal/fixed"
	"dstress/internal/vertex"
)

// generalENProgram is ENProgram with the general signed DivFixed/MulFixed
// on a full-width ratio instead of the unit-range combinators: the update
// circuit before they existed, kept as the oracle that the unit-range form
// computes the same function on every input EN can reach.
func generalENProgram(cfg CircuitConfig, granularityDollars, leverage float64) *vertex.Program {
	p := ENProgram(cfg, granularityDollars, leverage)
	w := cfg.Width
	p.BuildUpdate = func(b *circuit.Builder, D int, state, priv circuit.Word, msgs []circuit.Word) (circuit.Word, []circuit.Word) {
		word := func(idx int) circuit.Word { return priv[idx*w : (idx+1)*w] }
		cash, totalDebt := word(0), word(1)
		liquid := cash
		for d := 0; d < D; d++ {
			liquid = b.Add(liquid, b.Sub(word(2+D+d), msgs[d]))
		}
		unpaid := b.Sub(totalDebt, liquid)
		distressed := b.LessS(liquid, totalDebt)
		zero := b.ConstWord(0, w)
		ratio := b.MuxWord(distressed, b.DivFixed(unpaid, totalDebt, fixed.Frac), zero)
		out := make([]circuit.Word, D)
		for d := 0; d < D; d++ {
			out[d] = b.MulFixed(word(2+d), ratio, fixed.Frac)
		}
		return b.MuxWord(distressed, unpaid, zero), out
	}
	return p
}

// benchShapedEN is the en-* benchmark workloads' job for a seed: a
// core-periphery network with core bank 0's cash wiped out.
func benchShapedEN(t *testing.T, n, d int, seed int64) *finnet.ENNetwork {
	t.Helper()
	const core = 2
	top, err := finnet.CorePeriphery(finnet.CorePeripheryParams{N: n, Core: core, D: d, PeriLink: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	net := finnet.BuildEN(top, finnet.ENParams{
		CoreCash: 60e6, PeriCash: 5e6, CoreSize: core, DebtScale: 30e6, Seed: seed,
	})
	net.ApplyCashShock([]int{0}, 0)
	return net
}

func TestENUnitRangeMatchesGeneralForm(t *testing.T) {
	type job struct {
		name string
		net  *finnet.ENNetwork
		cfg  CircuitConfig
		d    int
	}
	jobs := []job{
		{"small chain", smallENNet(t), CircuitConfig{Width: 32, Unit: 1}, 3},
		{"two banks", twoBankEN(), CircuitConfig{Width: 32, Unit: 1}, 1},
	}
	for seed := int64(1); seed <= 8; seed++ {
		jobs = append(jobs,
			job{"bench N=8 D=3", benchShapedEN(t, 8, 3, seed), CircuitConfig{Width: 24, Unit: 1e7}, 3},
			job{"N=12 D=4 default width", benchShapedEN(t, 12, 4, seed), DefaultCircuitConfig(), 4})
	}
	distressed := 0
	for _, j := range jobs {
		unit := ENProgram(j.cfg, 1e7, 0.1)
		general := generalENProgram(j.cfg, 1e7, 0.1)
		g, err := ENGraph(j.net, j.cfg, j.d)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		for iters := 1; iters <= 4; iters++ {
			got, err := vertex.RunReference(unit, g, iters)
			if err != nil {
				t.Fatal(err)
			}
			want, err := vertex.RunReference(general, g, iters)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s, %d iterations: unit-range TDS raw %d, general form %d", j.name, iters, got, want)
			}
			if got != 0 {
				distressed++
			}
		}
	}
	if distressed == 0 {
		t.Fatal("no job had a distressed bank: the division was never exercised")
	}
}
