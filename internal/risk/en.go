package risk

import (
	"fmt"
	"math"

	"dstress/internal/circuit"
	"dstress/internal/finnet"
	"dstress/internal/fixed"
	"dstress/internal/vertex"
)

// ENResult is the outcome of an Eisenberg–Noe clearing computation.
type ENResult struct {
	// Prorate[i] is the fraction of its obligations bank i can pay.
	Prorate []float64
	// Shortfall[i] = TotalDebt(i)·(1−Prorate[i]).
	Shortfall []float64
	// TDS is the total dollar shortfall (§4.1).
	TDS float64
	// Iterations is the number of fixpoint steps performed before
	// convergence (or the cap).
	Iterations int
	// Converged reports whether the tolerance was met within the cap.
	Converged bool
}

// SolveEN computes the Eisenberg–Noe clearing vector by fixpoint iteration
// of the best-response map: each bank pays min(1, liquid/totalDebt) of its
// obligations, where liquid counts cash plus prorated incoming payments
// ([25] proves convergence within N iterations).
func SolveEN(net *finnet.ENNetwork, maxIter int, tol float64) *ENResult {
	n := net.N
	prorate := make([]float64, n)
	for i := range prorate {
		prorate[i] = 1
	}
	totalDebt := make([]float64, n)
	for i := 0; i < n; i++ {
		totalDebt[i] = net.TotalDebt(i)
	}
	res := &ENResult{}
	for it := 0; it < maxIter; it++ {
		next := make([]float64, n)
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			liquid := net.Cash[i]
			for j := 0; j < n; j++ {
				liquid += net.Debt[j][i] * prorate[j]
			}
			if totalDebt[i] > 0 && liquid < totalDebt[i] {
				next[i] = liquid / totalDebt[i]
			} else {
				next[i] = 1
			}
			if d := math.Abs(next[i] - prorate[i]); d > maxDelta {
				maxDelta = d
			}
		}
		prorate = next
		res.Iterations = it + 1
		if maxDelta < tol {
			res.Converged = true
			break
		}
	}
	res.Prorate = prorate
	res.Shortfall = make([]float64, n)
	for i := 0; i < n; i++ {
		res.Shortfall[i] = totalDebt[i] * (1 - prorate[i])
		res.TDS += res.Shortfall[i]
	}
	return res
}

// ENProgram compiles Figure 2(a) into a DStress vertex program.
//
// State: the bank's current dollar shortfall, max(totalDebt − liquid, 0) —
// exactly what the aggregation step sums into the TDS. Message to out-slot
// d: debts[d]·(1−prorate), the portion of the debt the bank cannot pay.
// Private inputs per vertex: cash, totalDebt, the D out-slot debts and the
// D in-slot credits.
//
// granularityDollars is the dollar-DP granularity T; leverage r sets the
// sensitivity 1/r (§4.4, §4.5).
func ENProgram(cfg CircuitConfig, granularityDollars, leverage float64) *vertex.Program {
	w := cfg.Width
	aggBits := w + 12
	if aggBits > 63 {
		aggBits = 63
	}
	return &vertex.Program{
		Name:        "eisenberg-noe",
		StateBits:   w,
		MsgBits:     w,
		AggBits:     aggBits,
		NoOp:        0,
		Sensitivity: ProgramSensitivity(ENSensitivity(leverage), granularityDollars, cfg),
		PrivBits:    func(D int) int { return w * (2 + 2*D) },
		BuildUpdate: func(b *circuit.Builder, D int, state, priv circuit.Word, msgs []circuit.Word) (circuit.Word, []circuit.Word) {
			word := func(idx int) circuit.Word { return priv[idx*w : (idx+1)*w] }
			cash := word(0)
			totalDebt := word(1)
			debts := make([]circuit.Word, D)
			credits := make([]circuit.Word, D)
			for d := 0; d < D; d++ {
				debts[d] = word(2 + d)
				credits[d] = word(2 + D + d)
			}
			// liquid = cash + Σ_d (credits_d − shortfall_d); padding slots
			// have credits_d = 0 and ⊥ = 0 messages, contributing nothing.
			liquid := cash
			for d := 0; d < D; d++ {
				liquid = b.Add(liquid, b.Sub(credits[d], msgs[d]))
			}
			unpaid := b.Sub(totalDebt, liquid)
			distressed := b.LessS(liquid, totalDebt)
			// ratio = (1−prorate) = unpaid/totalDebt ∈ [0,1] when
			// distressed: liquid ≥ 0 always, since shortfalls never exceed
			// credits, so distressed implies 0 < unpaid ≤ totalDebt. The
			// unit-range divide and multiply therefore compute exactly what
			// DivFixed/MulFixed would, on a Frac+1-bit ratio. The division
			// result is discarded when not distressed, which also covers
			// totalDebt = 0.
			ratio := b.MuxWord(distressed,
				b.DivFixedUnit(unpaid, totalDebt, fixed.Frac),
				b.ConstWord(0, fixed.Frac+1))
			newState := b.MuxWord(distressed, unpaid, b.ConstWord(0, w))
			out := make([]circuit.Word, D)
			for d := 0; d < D; d++ {
				out[d] = b.MulFixedUnit(debts[d], ratio, fixed.Frac)
			}
			return newState, out
		},
		BuildAggregate: func(b *circuit.Builder, states []circuit.Word) circuit.Word {
			acc := b.ConstWord(0, aggBits)
			for _, s := range states {
				acc = b.Add(acc, b.SignExtend(s, aggBits))
			}
			return acc
		},
	}
}

// ENGraph converts a finnet debt network into a vertex.Graph for ENProgram:
// edge i → j wherever Debt[i][j] > 0 (i sends j its unpaid portion).
func ENGraph(net *finnet.ENNetwork, cfg CircuitConfig, D int) (*vertex.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := vertex.NewGraph(net.N, D)
	for i := 0; i < net.N; i++ {
		for j := 0; j < net.N; j++ {
			if net.Debt[i][j] > 0 {
				if err := g.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	w := cfg.Width
	for i := 0; i < net.N; i++ {
		vals := make([]int64, 0, 2+2*D)
		cash, err := cfg.Encode(net.Cash[i])
		if err != nil {
			return nil, fmt.Errorf("risk: bank %d cash: %w", i, err)
		}
		totalDebt, err := cfg.Encode(net.TotalDebt(i))
		if err != nil {
			return nil, fmt.Errorf("risk: bank %d totalDebt: %w", i, err)
		}
		vals = append(vals, cash, totalDebt)
		// Out-slot debts.
		for d := 0; d < D; d++ {
			var v int64
			if d < len(g.Out[i]) {
				if v, err = cfg.Encode(net.Debt[i][g.Out[i][d]]); err != nil {
					return nil, fmt.Errorf("risk: bank %d debt slot %d: %w", i, d, err)
				}
			}
			vals = append(vals, v)
		}
		// In-slot credits.
		for d := 0; d < D; d++ {
			var v int64
			if d < len(g.In[i]) {
				if v, err = cfg.Encode(net.Debt[g.In[i][d]][i]); err != nil {
					return nil, fmt.Errorf("risk: bank %d credit slot %d: %w", i, d, err)
				}
			}
			vals = append(vals, v)
		}
		var bits []uint8
		for _, v := range vals {
			bits = append(bits, circuit.EncodeWord(v, w)...)
		}
		g.Priv[i] = bits
		g.InitState[i] = 0 // no shortfall before the first update
	}
	return g, nil
}
