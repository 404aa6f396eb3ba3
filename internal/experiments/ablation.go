package experiments

import (
	"context"
	"fmt"
	"sync"

	"dstress/internal/circuit"
	"dstress/internal/cluster"
	"dstress/internal/cost"
	"dstress/internal/risk"
	"dstress/internal/secretshare"
	"dstress/internal/transfer"
	"dstress/internal/vertex"
)

// Ablation quantifies the design choices DESIGN.md calls out:
//
//  1. Homomorphic aggregation in the transfer protocol (final protocol vs
//     Strawman #2): compresses the u→v hop from (k+1)² to k+1 bundles.
//  2. Ripple vs Sklansky adders: GMW rounds (depth) vs AND gates.
//  3. Degree bucketing (§3.7): update-circuit work saved on a
//     core-periphery degree profile vs one bit of degree leakage.
//  4. Flat vs tree aggregation (§3.6): per-node traffic at the aggregation
//     step.
func Ablation(o Options) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "Ablations: what each design choice buys",
		Header: []string{"ablation", "variant", "metric", "value"},
	}
	ablationTransfer(o, t)
	ablationAdders(t)
	ablationBucketing(t)
	ablationAggTree(o, t)
	return t
}

// ablationTransfer compares the adjuster-received bytes of the final
// protocol against Strawman #2 for one message transfer.
func ablationTransfer(o Options, t *Table) {
	g := o.group()
	k := 3
	if o.Full {
		k = 19
	}
	// Final protocol.
	envF, err := newTransferEnv(g, k, msgBits, 0)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return
	}
	envF.run(0x3c3)
	finalBytes := envF.net.NodeStats(envF.adjuster).BytesReceived

	// Strawman #2 (no aggregation): run the S2 role functions.
	envS, err := newTransferEnv(g, k, msgBits, 0)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return
	}
	shares := secretshare.SplitXOR(0x3c3, k+1, msgBits)
	var wg sync.WaitGroup
	for m, id := range envS.senders {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := transfer.Strawman2Send(context.Background(), envS.p, envS.net.Endpoint(id), envS.relay, "ab", m, shares[m], envS.certKeys); err != nil {
				panic(err)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := transfer.Strawman2Relay(context.Background(), envS.p, envS.net.Endpoint(envS.relay), envS.senders, envS.adjuster, "ab"); err != nil {
			panic(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := transfer.Strawman2Adjust(context.Background(), envS.p, envS.net.Endpoint(envS.adjuster), envS.relay, envS.recvs, envS.neighbor, "ab"); err != nil {
			panic(err)
		}
	}()
	for m, id := range envS.recvs {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := transfer.Strawman2Receive(context.Background(), envS.p, envS.net.Endpoint(id), envS.adjuster, "ab", envS.privKeys[m], envS.table); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()
	s2Bytes := envS.net.NodeStats(envS.adjuster).BytesReceived

	t.Add("transfer aggregation", "final protocol", "v-received bytes", fmt.Sprint(finalBytes))
	t.Add("transfer aggregation", "strawman #2", "v-received bytes", fmt.Sprint(s2Bytes))
	t.Add("transfer aggregation", "compression", "ratio", fmt.Sprintf("%.1fx (theory: k+1 = %d)", float64(s2Bytes)/float64(finalBytes), k+1))
}

// ablationAdders compares ripple and Sklansky adders at 32 bits.
func ablationAdders(t *Table) {
	mk := func(prefix bool) *circuit.Circuit {
		b := circuit.NewBuilder()
		x := b.InputWord(32)
		y := b.InputWord(32)
		if prefix {
			b.OutputWord(b.AddPrefix(x, y))
		} else {
			b.OutputWord(b.Add(x, y))
		}
		return b.Build()
	}
	r := mk(false)
	p := mk(true)
	t.Add("adder", "ripple-carry", "ANDs / rounds", fmt.Sprintf("%d / %d", r.NumAnd, r.Depth()))
	t.Add("adder", "Sklansky prefix", "ANDs / rounds", fmt.Sprintf("%d / %d", p.NumAnd, p.Depth()))
	t.Add("adder", "trade-off", "depth reduction", fmt.Sprintf("%.1fx for %.1fx gates",
		float64(r.Depth())/float64(p.Depth()), float64(p.NumAnd)/float64(r.NumAnd)))
}

// ablationBucketing quantifies §3.7's degree-bucket proposal on a
// core-periphery degree profile.
func ablationBucketing(t *Table) {
	cfg := riskCfg()
	prog := risk.ENProgram(cfg, 1e9, 0.1)
	cache := map[int]int{}
	andAt := func(d int) int {
		if v, ok := cache[d]; ok {
			return v
		}
		c, err := prog.UpdateCircuit(d)
		if err != nil {
			panic(err)
		}
		cache[d] = c.NumAnd
		return c.NumAnd
	}
	degrees := make([]int, 100)
	for i := range degrees {
		if i < 10 {
			degrees[i] = 40 // hubs
		} else {
			degrees[i] = 1 + i%8 // periphery
		}
	}
	plan, err := cost.PlanBuckets(degrees, []int{8, 40})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return
	}
	single := cost.SingleBoundWork(len(degrees), 40, andAt)
	t.Add("degree bucketing", "single bound D=40", "total update ANDs", fmt.Sprint(single))
	t.Add("degree bucketing", "buckets {8,40}", "total update ANDs", fmt.Sprint(plan.UpdateWork(andAt)))
	t.Add("degree bucketing", "savings", "work / leakage", fmt.Sprintf("%.0f%% / %.0f bit",
		plan.Savings(andAt)*100, plan.LeakageBits()))
}

// ablationAggTree compares per-node traffic of the flat aggregation block
// against the §3.6 two-level tree.
func ablationAggTree(o Options, t *Table) {
	prog := sumTestProgram()
	run := func(fanIn int) (float64, error) {
		g := vertex.NewGraph(12, 2)
		for v := 0; v < 12; v++ {
			if err := g.AddEdge(v, (v+1)%12); err != nil {
				return 0, err
			}
			g.Priv[v] = circuit.EncodeWord(int64(v), 8)
		}
		sum, _, err := runSim(o, 1, fanIn, 0, cluster.OTDealer, prog, g, 1)
		if err != nil {
			return 0, err
		}
		return sum.Report.AvgNodeBytes, nil
	}
	flat, err1 := run(0)
	tree, err2 := run(4)
	if err1 != nil || err2 != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("agg tree ablation failed: %v %v", err1, err2))
		return
	}
	t.Add("aggregation", "flat (single block)", "avg bytes/node", fmt.Sprintf("%.0f", flat))
	t.Add("aggregation", "tree (fan-in 4)", "avg bytes/node", fmt.Sprintf("%.0f", tree))
	t.Add("aggregation", "note", "-", "tree distributes the root block's fan-in across leaf blocks")
}

// sumTestProgram is a minimal sum program for the aggregation ablation.
func sumTestProgram() *vertex.Program {
	const w = 8
	return &vertex.Program{
		Name: "ablation-sum", StateBits: w, MsgBits: w, AggBits: 16,
		Sensitivity: 1,
		PrivBits:    func(D int) int { return w },
		BuildUpdate: func(b *circuit.Builder, D int, state, priv circuit.Word, msgs []circuit.Word) (circuit.Word, []circuit.Word) {
			acc := priv
			for _, m := range msgs {
				acc = b.Add(acc, m)
			}
			out := make([]circuit.Word, D)
			for d := range out {
				out[d] = acc
			}
			return acc, out
		},
		BuildAggregate: func(b *circuit.Builder, states []circuit.Word) circuit.Word {
			acc := b.ConstWord(0, 16)
			for _, s := range states {
				acc = b.Add(acc, b.SignExtend(s, 16))
			}
			return acc
		},
	}
}
