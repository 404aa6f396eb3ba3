package cluster

import (
	"fmt"

	"dstress/internal/finnet"
	"dstress/internal/risk"
)

// SyntheticOptions parameterize a synthetic core-periphery systemic-risk
// scenario. dstress-run and dstress-node's coordinator both build theirs
// here, so the simulated and deployed paths run the identical experiment.
type SyntheticOptions struct {
	Model      string // "en" or "egj"
	N          int    // number of banks
	Core       int    // core size of the core-periphery topology
	D          int    // public degree bound
	K          int    // collusion bound
	Iterations int    // 0 = RecommendedIterations(N)
	Shock      int    // number of core banks whose reserves are wiped
	Epsilon    float64
	Alpha      float64
	Group      string
	Seed       int64
	AggFanIn   int
}

// BuildSynthetic generates the banking network, compiles the scenario, and
// returns it together with the trusted-baseline TDS in dollars (what a
// regulator seeing all books would compute) for comparison against the
// released value.
func BuildSynthetic(o SyntheticOptions) (Scenario, float64, error) {
	if o.Iterations == 0 {
		o.Iterations = risk.RecommendedIterations(o.N)
	}
	top, err := finnet.CorePeriphery(finnet.CorePeripheryParams{
		N: o.N, Core: o.Core, D: o.D, PeriLink: 2, Seed: o.Seed,
	})
	if err != nil {
		return Scenario{}, 0, err
	}
	shocked := make([]int, o.Shock)
	for i := range shocked {
		shocked[i] = i
	}

	spec := ProgramSpec{Kind: o.Model, Width: 32, Unit: 1e6, GranularityDollars: 1e6, Leverage: 0.1}
	ccfg := risk.CircuitConfig{Width: spec.Width, Unit: spec.Unit}
	sc := Scenario{
		Cfg: ConfigWire{
			Group: o.Group, K: o.K, Alpha: o.Alpha, Epsilon: o.Epsilon, AggFanIn: o.AggFanIn,
		},
		Prog:       spec,
		Iterations: o.Iterations,
	}
	var exactTDS float64
	switch o.Model {
	case "en":
		net := finnet.BuildEN(top, finnet.ENParams{
			CoreCash: 60e6, PeriCash: 5e6, CoreSize: o.Core, DebtScale: 30e6, Seed: o.Seed,
		})
		net.ApplyCashShock(shocked, 0)
		exactTDS = risk.SolveEN(net, 4*o.N, 1e-9).TDS
		sc.Graph, err = risk.ENGraph(net, ccfg, o.D)
	case "egj":
		net := finnet.BuildEGJ(top, finnet.EGJParams{
			CoreBase: 60e6, PeriBase: 8e6, CoreSize: o.Core,
			HoldingFrac: 0.15, ThresholdFrac: 0.9, PenaltyFrac: 0.25, Seed: o.Seed,
		})
		net.ApplyBaseShock(shocked, 0.3)
		exactTDS = risk.SolveEGJ(net, o.Iterations+1).TDS
		sc.Graph, err = risk.EGJGraph(net, ccfg, o.D)
	default:
		return Scenario{}, 0, fmt.Errorf("cluster: unknown model %q (want en or egj)", o.Model)
	}
	if err != nil {
		return Scenario{}, 0, err
	}
	return sc, exactTDS, nil
}

// DecodeDollars converts a released raw aggregate back to dollars for the
// synthetic scenarios built by BuildSynthetic.
func DecodeDollars(sc Scenario, raw int64) float64 {
	return risk.CircuitConfig{Width: sc.Prog.Width, Unit: sc.Prog.Unit}.Decode(raw)
}
