// Quickstart: run a privacy-preserving Eisenberg–Noe stress test on a
// five-bank debt chain and compare against the plaintext ground truth,
// then pose a second budgeted query against the standing deployment.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dstress"
)

func main() {
	ctx := context.Background()

	// A five-bank debt chain: bank 0 owes bank 1, which owes bank 2, and so
	// on, each with thin cash reserves. Wiping out bank 0's reserves makes
	// shortfalls cascade down the chain.
	net := &dstress.ENNetwork{
		N:    5,
		Cash: []float64{5, 10, 10, 10, 10},
		Debt: [][]float64{
			{0, 100, 0, 0, 0},
			{0, 0, 80, 0, 0},
			{0, 0, 0, 60, 0},
			{0, 0, 0, 0, 40},
			{0, 0, 0, 0, 0},
		},
	}
	net.ApplyCashShock([]int{0}, 0) // the stress scenario: bank 0 loses its reserves

	// Ground truth: what a trusted regulator with all the books would see.
	truth := dstress.SolveEN(net, 20, 1e-9)
	fmt.Printf("plaintext clearing: TDS = $%.1f, prorates = %.3v\n", truth.TDS, truth.Prorate)

	// The same computation under DStress: dollar amounts encoded in fixed
	// point, the update rule compiled to a Boolean circuit, and every step
	// executed inside block MPCs with topology-hiding transfers.
	cfg := dstress.CircuitConfig{Width: 32, Unit: 1} // small example: unit dollars
	prog := dstress.ENProgram(cfg, 1 /* T: protect $1 reallocations */, 0.1)
	graph, err := dstress.ENGraph(net, cfg, 2 /* degree bound D */)
	if err != nil {
		log.Fatal(err)
	}

	// An Engine runs Jobs; NewSimEngine simulates the deployment with one
	// node goroutine per bank in this process, NewClusterEngine runs the
	// identical Job on real TCP-connected daemons (see examples/cluster) —
	// both under the same coordinator. Canceling the context aborts a run
	// instead of hanging on a dead counterparty.
	eng := dstress.NewSimEngine(dstress.EngineConfig{
		Group:  dstress.TestGroup(), // demo group; use dstress.P256() in deployment
		K:      1,                   // tolerate 1 colluding node (blocks of 2)
		Alpha:  0.5,                 // edge-privacy noise on transfers
		OTMode: dstress.OTDealer,
	})
	job := dstress.Job{
		Program:    prog,
		Graph:      graph,
		Iterations: dstress.RecommendedIterations(net.N) + 2,
		Epsilon:    0.5, // output-privacy budget for this query
		Decode:     cfg.Decode,
	}

	// A Session keeps the deployment standing — trusted-party setup and the
	// GMW/OT handshakes happen once — and charges every query against an ε
	// budget, refusing queries that would overspend it.
	sess, err := eng.Open(ctx, job, 1.2 /* total ε budget */)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	res, err := sess.Query(ctx, dstress.QuerySpec{Epsilon: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DStress (ε=%.1f):    TDS = $%.1f (noised)\n", res.Epsilon, res.Value)
	rep := res.Report
	fmt.Printf("execution: %s transport, %d iterations, update circuit %d AND gates\n",
		rep.Transport, rep.Iterations, rep.UpdateAndGates)
	fmt.Printf("phases: init %v, compute %v, transfer %v, aggregate+noise %v\n",
		rep.InitTime, rep.ComputeTime, rep.CommTime, rep.AggTime)
	fmt.Printf("traffic: %.1f KB per node on average\n", rep.AvgNodeBytes/1024)

	// A second query against the same standing deployment: no new setup,
	// only share redistribution — note the init phase collapsing.
	res2, err := sess.Query(ctx, dstress.QuerySpec{Epsilon: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second query (ε=%.1f): TDS = $%.1f; init %v (was %v); ε remaining %.2f\n",
		res2.Epsilon, res2.Value, res2.Report.InitTime, rep.InitTime, sess.Remaining())

	// The budget is enforced: a third 0.5 query would exceed 1.2.
	if _, err := sess.Query(ctx, dstress.QuerySpec{Epsilon: 0.5}); err != nil {
		fmt.Printf("third query refused: %v\n", err)
	}
}
