// A non-financial vertex program, showing the programming model's
// generality (§3.1 notes cloud reliability, criminal intelligence and
// social science as other domains): privately count the edges of a graph
// spread across administrative domains.
//
// Each vertex sends "1" to every neighbor each round and counts what it
// receives; after one round its state is its in-degree, and the aggregate
// (sum of in-degrees = number of edges) is released with Laplace noise.
// No participant learns anything about the topology beyond its own edges.
//
//	go run ./examples/private_degree_sum
package main

import (
	"context"
	"fmt"
	"log"

	"dstress"
)

// degreeSumProgram builds the vertex program with pure circuit
// combinators: no financial machinery involved.
func degreeSumProgram() *dstress.Program {
	const w = 12
	return &dstress.Program{
		Name:      "degree-sum",
		StateBits: w,
		MsgBits:   w,
		AggBits:   20,
		NoOp:      0,
		// Sensitivity: adding/removing one edge changes the count by 1.
		Sensitivity: 1,
		PrivBits:    func(D int) int { return 1 }, // unused, minimum width
		BuildUpdate: func(b *dstress.CircuitBuilder, D int, state, priv dstress.Word, msgs []dstress.Word) (dstress.Word, []dstress.Word) {
			// state' = Σ messages (real neighbors send 1, padding sends ⊥=0).
			acc := b.ConstWord(0, len(state))
			for _, m := range msgs {
				acc = b.Add(acc, m)
			}
			// Send 1 on every slot; padding slots are dropped by the
			// runtime, so the communication pattern stays degree-D.
			one := b.ConstWord(1, len(state))
			out := make([]dstress.Word, D)
			for d := range out {
				out[d] = one
			}
			return acc, out
		},
		BuildAggregate: func(b *dstress.CircuitBuilder, states []dstress.Word) dstress.Word {
			acc := b.ConstWord(0, 20)
			for _, s := range states {
				acc = b.Add(acc, b.ZeroExtend(s, 20))
			}
			return acc
		},
	}
}

func main() {
	// A small "collaboration graph" spread across 8 organizations.
	g := dstress.NewGraph(8, 3)
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, // a ring
		{4, 0}, {5, 1}, {6, 2}, {7, 3}, // spokes
		{4, 5}, {6, 7},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	for v := 0; v < 8; v++ {
		g.Priv[v] = []uint8{0}
	}

	prog := degreeSumProgram()
	exact, err := dstress.RunReference(prog, g, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact edge count: %d (graph has %d edges)\n", exact, len(edges))

	eng := dstress.NewSimEngine(dstress.EngineConfig{
		Group: dstress.TestGroup(), K: 2, Alpha: 0.5, OTMode: dstress.OTDealer,
	})
	res, err := eng.Run(context.Background(), dstress.Job{Program: prog, Graph: g, Iterations: 1, Epsilon: 0.7})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	fmt.Printf("privately released count (ε=0.7): %d\n", res.Raw)
	fmt.Printf("blocks of 3, %d-AND update circuit, %v total, %.1f KB/node\n",
		rep.UpdateAndGates, rep.WallTime, rep.AvgNodeBytes/1024)
	fmt.Println("no node observed any edge it was not an endpoint of.")
}
