// Eisenberg–Noe systemic-risk stress test on a synthetic core-periphery
// banking network: sweep shock severities in plaintext, then run the worst
// scenario privately under DStress with dollar-differential privacy.
//
//	go run ./examples/eisenberg_noe
package main

import (
	"context"
	"fmt"
	"log"

	"dstress"
)

func main() {
	const (
		nBanks = 20
		core   = 4
		degree = 8
	)
	top, err := dstress.CorePeriphery(dstress.CorePeripheryParams{
		N: nBanks, Core: core, D: degree, PeriLink: 2, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sweep: how does the total dollar shortfall grow as more core banks
	// lose their reserves? (The regulator's "what if" table, plaintext.)
	fmt.Println("shock sweep (plaintext clearing):")
	fmt.Println("  shocked core banks | TDS ($M) | distressed banks")
	var worst *dstress.ENNetwork
	for shocked := 0; shocked <= core; shocked++ {
		net := dstress.BuildEN(top, dstress.ENParams{
			CoreCash: 60, PeriCash: 5, CoreSize: core, DebtScale: 30, Seed: 7,
		})
		banks := make([]int, shocked)
		for i := range banks {
			banks[i] = i
		}
		net.ApplyCashShock(banks, 0)
		res := dstress.SolveEN(net, 4*nBanks, 1e-9)
		distressed := 0
		for _, p := range res.Prorate {
			if p < 1-1e-9 {
				distressed++
			}
		}
		fmt.Printf("  %18d | %8.1f | %d\n", shocked, res.TDS, distressed)
		worst = net
	}

	// Now the private version of the worst scenario. Each bank keeps its
	// balance sheet; the shared computation reveals only the noised TDS.
	cfg := dstress.CircuitConfig{Width: 32, Unit: 1e6} // millions of dollars
	prog := dstress.ENProgram(cfg, 1e6 /* T = $1M */, 0.1)
	graph, err := dstress.ENGraph(scaleToMillions(worst), cfg, degree)
	if err != nil {
		log.Fatal(err)
	}
	iters := dstress.RecommendedIterations(nBanks)
	exact, err := dstress.RunReference(prog, graph, iters)
	if err != nil {
		log.Fatal(err)
	}
	eng := dstress.NewSimEngine(dstress.EngineConfig{
		Group: dstress.TestGroup(), K: 2, Alpha: 0.9, OTMode: dstress.OTDealer,
	})
	res, err := eng.Run(context.Background(), dstress.Job{
		Program: prog, Graph: graph, Iterations: iters, Epsilon: 0.23, Decode: cfg.Decode,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprivate stress test (blocks of 3, ε=0.23, I=%d):\n", iters)
	fmt.Printf("  exact TDS     = $%.1fM\n", cfg.Decode(exact)/1e6)
	fmt.Printf("  released TDS  = $%.1fM  (Laplace noise drawn inside the aggregation MPC)\n", res.Value/1e6)
	fmt.Printf("  wall time %v, %.1f KB/node\n", res.Report.WallTime, res.Report.AvgNodeBytes/1024)

	// Privacy budgeting per §4.5: how often can this run?
	up := dstress.DefaultUtilityParams()
	fmt.Printf("\npolicy: ε per query %.3f → %d stress tests per year within ε_max = ln 2\n",
		up.EpsilonPerQuery(), up.QueriesPerYear())
}

// scaleToMillions converts the synthetic network's abstract units into
// dollars-in-millions for the fixed-point encoding.
func scaleToMillions(net *dstress.ENNetwork) *dstress.ENNetwork {
	out := &dstress.ENNetwork{N: net.N, Cash: make([]float64, net.N), Debt: make([][]float64, net.N)}
	for i := 0; i < net.N; i++ {
		out.Cash[i] = net.Cash[i] * 1e6
		out.Debt[i] = make([]float64, net.N)
		for j := 0; j < net.N; j++ {
			out.Debt[i][j] = net.Debt[i][j] * 1e6
		}
	}
	return out
}
