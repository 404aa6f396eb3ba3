// Elliott–Golub–Jackson contagion with equity cross-holdings and failure
// penalties: demonstrate the discontinuous "distress cost" amplification,
// then run the scenario privately under DStress.
//
//	go run ./examples/elliott_golub_jackson
package main

import (
	"context"
	"fmt"
	"log"

	"dstress"
)

func main() {
	const (
		nBanks = 16
		core   = 4
		degree = 6
	)
	top, err := dstress.CorePeriphery(dstress.CorePeripheryParams{
		N: nBanks, Core: core, D: degree, PeriLink: 1, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	build := func() *dstress.EGJNetwork {
		return dstress.BuildEGJ(top, dstress.EGJParams{
			CoreBase: 80, PeriBase: 12, CoreSize: core,
			HoldingFrac: 0.15, ThresholdFrac: 0.92, PenaltyFrac: 0.3, Seed: 21,
		})
	}

	// The EGJ model's signature behaviour: failure penalties make damage
	// discontinuous in the shock size. Sweep the shock on bank 0's base
	// assets and watch the TDS jump when thresholds start tripping.
	fmt.Println("base-asset shock sweep on bank 0 (plaintext):")
	fmt.Println("  remaining assets | TDS | failed banks")
	for _, keep := range []float64{1.0, 0.9, 0.8, 0.6, 0.4, 0.2} {
		net := build()
		net.ApplyBaseShock([]int{0}, keep)
		res := dstress.SolveEGJ(net, 12)
		failed := 0
		for _, f := range res.Failed {
			if f {
				failed++
			}
		}
		fmt.Printf("  %15.0f%% | %5.1f | %d\n", keep*100, res.TDS, failed)
	}

	// Private run of a severe scenario.
	net := build()
	net.ApplyBaseShock([]int{0, 1}, 0.4)
	cfg := dstress.CircuitConfig{Width: 32, Unit: 1}
	prog := dstress.EGJProgram(cfg, 1 /* T */, 0.1) // sensitivity 2/r = 20
	graph, err := dstress.EGJGraph(net, cfg, degree)
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
		Program: prog, Graph: graph, Iterations: iters, Epsilon: 1.0, Decode: cfg.Decode,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprivate EGJ stress test (blocks of 3, ε=1.0, I=%d):\n", iters)
	fmt.Printf("  exact TDS    = %.1f\n", cfg.Decode(exact))
	fmt.Printf("  released TDS = %.1f\n", res.Value)
	fmt.Printf("  update circuit: %d AND gates; wall time %v\n",
		res.Report.UpdateAndGates, res.Report.WallTime)
}
