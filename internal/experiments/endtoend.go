package experiments

import (
	"context"
	"fmt"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/cluster"
	"dstress/internal/cost"
	"dstress/internal/finnet"
	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// e2eNetwork builds the synthetic banking network for the end-to-end runs
// (the paper's Fig. 5 uses a synthetic graph with N banks, degree ≤ D).
func e2eNetwork(n, d int) (*finnet.ENNetwork, *finnet.EGJNetwork, error) {
	core := n / 5
	if core < 2 {
		core = 2
	}
	top, err := finnet.CorePeriphery(finnet.CorePeripheryParams{
		N: n, Core: core, D: d, PeriLink: 1, Seed: 42,
	})
	if err != nil {
		return nil, nil, err
	}
	en := finnet.BuildEN(top, finnet.ENParams{
		CoreCash: 50, PeriCash: 5, CoreSize: core, DebtScale: 30, Seed: 42,
	})
	en.ApplyCashShock([]int{0, 1}, 0)
	egj := finnet.BuildEGJ(top, finnet.EGJParams{
		CoreBase: 50, PeriBase: 8, CoreSize: core,
		HoldingFrac: 0.15, ThresholdFrac: 0.9, PenaltyFrac: 0.25, Seed: 42,
	})
	egj.ApplyBaseShock([]int{0, 1}, 0.4)
	return en, egj, nil
}

// runE2E executes one model end-to-end under MPC and returns the report.
func runE2E(o Options, model string, blockSize, n, d, iters int) (*vertex.Report, error) {
	cfg := riskCfg()
	en, egj, err := e2eNetwork(n, d)
	if err != nil {
		return nil, err
	}
	var prog *vertex.Program
	var graph *vertex.Graph
	switch model {
	case "EN":
		prog = risk.ENProgram(cfg, 1e9, 0.1)
		graph, err = risk.ENGraph(en, cfg, d)
	case "EGJ":
		prog = risk.EGJProgram(cfg, 1e9, 0.1)
		graph, err = risk.EGJGraph(egj, cfg, d)
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
	if err != nil {
		return nil, err
	}
	// One ε=0 query on a simulated deployment with dealer OTs. The "setup"
	// column is the deployment's whole one-time cost: opening it, plus the
	// session joins its engines' first job pays.
	ctx := context.Background()
	sc := cluster.Scenario{
		Config: cluster.Config{Group: o.group(), K: blockSize - 1, Alpha: 0.5, OTMode: cluster.OTDealer},
		Job:    cluster.Job{Program: prog, Graph: graph, Iterations: iters},
	}
	start := time.Now()
	sess, err := cluster.OpenHub(ctx, sc)
	if err != nil {
		return nil, err
	}
	open := time.Since(start)
	res, err := sess.Query(ctx, cluster.Query{Iterations: iters})
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep := &res.Report.Report
	rep.SetupTime += open
	return rep, nil
}

// Fig5EndToEnd reproduces Figure 5: end-to-end computation time (split by
// phase) and per-node traffic for EN and EGJ across block sizes.
func Fig5EndToEnd(o Options) *Table {
	n, d, iters := o.e2e()
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("Figure 5: end-to-end runs (N=%d, D=%d, I=%d)", n, d, iters),
		Header: []string{"model", "block", "setup"},
	}
	for _, ph := range new(vertex.Report).Phases() {
		t.Header = append(t.Header, ph.Label)
	}
	t.Header = append(t.Header, "total", "KB/node")
	for _, model := range []string{"EN", "EGJ"} {
		for _, bs := range o.blockSizes() {
			rep, err := runE2E(o, model, bs, n, d, iters)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s block %d: %v", model, bs, err))
				continue
			}
			row := []string{model, fmt.Sprint(bs), durStr(rep.SetupTime)}
			for _, ph := range rep.Phases() {
				row = append(row, durStr(ph.Time))
			}
			t.Add(append(row, durStr(rep.TotalTime()), fmt.Sprintf("%.1f", rep.AvgNodeBytes/1024))...)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: total time grows ~O(k²) (each node serves in more blocks as k grows)",
		"phase split: computation steps dominate; transfers second (Fig. 5 left)")
	return t
}

// Fig6Projection reproduces Figure 6: projected end-to-end time and
// per-node traffic for large deployments, plus validation rows from real
// (scaled-down) runs.
func Fig6Projection(o Options) *Table {
	cal := cost.Calibrate(o.group())
	cfg := riskCfg()
	enProg := risk.ENProgram(cfg, 1e9, 0.1)
	spec := noiseSpec(o.Full)

	t := &Table{
		ID:     "E7",
		Title:  "Figure 6: projected EN cost vs network size (blocks of 20, I = log2 N)",
		Header: []string{"kind", "N", "D", "time", "MB/node"},
	}
	for _, d := range []int{10, 40, 70, 100} {
		upd, err := enProg.UpdateCircuit(d)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		agg, err := enProg.AggregateCircuit(100, vertex.NoiseSpec{})
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		nb := circuit.NewBuilder()
		rnd := nb.InputWord(spec.RandBits(enProg.AggBits))
		nb.OutputWord(spec.Build(nb, rnd, enProg.AggBits))
		noiseC := nb.Build()

		m := cost.Model{
			Cal: cal, UpdateAnd: upd.NumAnd, UpdateDepth: upd.Depth(),
			AggAndPer100: agg.NumAnd, NoiseAnd: noiseC.NumAnd, MsgBits: msgBits,
		}
		for _, n := range []int{100, 500, 1000, 1750, 2000} {
			p := m.Estimate(n, d, 19, risk.RecommendedIterations(n))
			t.Add("projected", fmt.Sprint(n), fmt.Sprint(d),
				p.Time.Round(time.Second).String(),
				fmt.Sprintf("%.1f", float64(p.TrafficPerNode)/(1<<20)))
		}
	}
	// Validation points: real runs at small N (the paper validated at N=20
	// and N=100 with D=10).
	valN := []int{8, 16}
	valBlock := 3
	if o.Full {
		valN = []int{20, 100}
		valBlock = 20
	}
	for _, n := range valN {
		rep, err := runE2E(o, "EN", valBlock, n, 3, risk.RecommendedIterations(n))
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("validation N=%d: %v", n, err))
			continue
		}
		t.Add("measured", fmt.Sprint(n), "3",
			rep.TotalTime().Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", rep.AvgNodeBytes/(1<<20)))
	}
	t.Notes = append(t.Notes,
		"projection assumes the paper's deployment: 100 machines host all N nodes (work serializes beyond N=100)",
		"measured rows run fully parallel in-process, so they sit below the projection as in the paper ('actual runs tend to be a bit faster than predicted')",
		fmt.Sprintf("calibration: %.0f ns/AND-pair, %.1f µs/exp", cal.ANDGatePairNs, cal.ExpNs/1000))
	return t
}

// NaiveMPCBaseline reproduces §5.5's baseline: evaluating the contagion
// computation as one monolithic MPC (an N×N matrix power) and
// extrapolating its O(N³) cost to the full banking system.
func NaiveMPCBaseline(o Options) *Table {
	g := o.group()
	sizes := []int{2, 3, 4}
	if o.Full {
		sizes = []int{4, 6, 8}
	}
	t := &Table{
		ID:     "E8",
		Title:  "§5.5: naive monolithic-MPC baseline (matrix multiply in GMW, 3 parties)",
		Header: []string{"matrix n", "AND gates", "time", "extrapolated to N=1750 ×11 multiplies"},
	}
	var lastN int
	var lastTime time.Duration
	for _, n := range sizes {
		c := cost.NaiveMatrixCircuit(n, circuitWidth)
		m := measureBlockMPC(g, 3, c).elapsed
		ext := cost.ExtrapolateNaive(m, n, 1750, 11)
		t.Add(fmt.Sprint(n), fmt.Sprint(c.NumAnd), durStr(m), fmt.Sprintf("%.0f days", ext.Hours()/24))
		lastN, lastTime = n, m
	}
	if lastN > 0 {
		ours := cost.ExtrapolateNaive(lastTime, lastN, 1750, 11)
		t.Notes = append(t.Notes,
			fmt.Sprintf("our extrapolation: %.0f days; paper's (from Wysteria at N=25): %.0f years",
				ours.Hours()/24, cost.PaperNaiveEstimate().Hours()/24/365),
			"our measurement is a zero-latency loopback over the packed GMW engine; Wysteria's real-network figure is far larger",
			"shape: O(N³) per multiply — privacy-preserving contagion as one MPC is infeasible, which motivates DStress")
	}
	return t
}
