package vertex

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/group"
	"dstress/internal/network"
)

var tg = group.ModP256()

// sumProgram is a minimal test program: each vertex's new state is its
// private constant plus the sum of incoming messages; it sends its new
// state to every neighbor; the aggregate is the sum of all states.
func sumProgram() *Program {
	const w = 8
	return &Program{
		Name:        "sum",
		StateBits:   w,
		MsgBits:     w,
		AggBits:     16,
		NoOp:        0,
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

// ringGraph builds a directed ring of n vertices with priv constant = v+1.
func ringGraph(t *testing.T, n int, p *Program) *Graph {
	t.Helper()
	g := NewGraph(n, 2)
	for v := 0; v < n; v++ {
		if err := g.AddEdge(v, (v+1)%n); err != nil {
			t.Fatal(err)
		}
		g.InitState[v] = int64(v % 3)
		g.Priv[v] = circuit.EncodeWord(int64(v+1), 8)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4, 2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if s, err := g.InSlot(0, 1); err != nil || s != 0 {
		t.Errorf("InSlot = %d, %v", s, err)
	}
	if _, err := g.InSlot(1, 0); err == nil {
		t.Error("InSlot for missing edge accepted")
	}
	if err := g.AddEdge(2, 3); err == nil {
		t.Error("AddEdge after Finalize accepted")
	}
}

func TestGraphDegreeBound(t *testing.T) {
	g := NewGraph(5, 1)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2) // out-degree 2 > bound 1
	if err := g.Finalize(); err == nil {
		t.Error("degree-bound violation accepted")
	}
	g2 := NewGraph(5, 1)
	g2.AddEdge(1, 0)
	g2.AddEdge(2, 0) // in-degree 2 > bound 1
	if err := g2.Finalize(); err == nil {
		t.Error("in-degree violation accepted")
	}
}

func TestGraphDuplicateEdge(t *testing.T) {
	g := NewGraph(3, 2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if err := g.Finalize(); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestProgramValidate(t *testing.T) {
	p := sumProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.StateBits = 0
	if err := bad.Validate(); err == nil {
		t.Error("StateBits 0 accepted")
	}
	bad = *p
	bad.BuildUpdate = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing BuildUpdate accepted")
	}
}

func TestReferenceRing(t *testing.T) {
	// Hand-computed: ring of 3, priv = v+1, init = v%3, zero messages at
	// step 0. After the final computation step the states have settled into
	// a pattern we verify against a direct simulation.
	p := sumProgram()
	g := ringGraph(t, 3, p)
	got, err := RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Direct simulation with plain integers (wrap at 8 bits).
	states := []int64{0, 1, 2}
	priv := []int64{1, 2, 3}
	msgs := []int64{0, 0, 0} // message arriving at v (from v-1)
	for it := 0; it <= 2; it++ {
		newStates := make([]int64, 3)
		for v := 0; v < 3; v++ {
			newStates[v] = int64(int8(priv[v] + msgs[v]))
		}
		states = newStates
		if it == 2 {
			break
		}
		next := make([]int64, 3)
		for v := 0; v < 3; v++ {
			next[(v+1)%3] = states[v]
		}
		msgs = next
	}
	var want int64
	for _, s := range states {
		want += s
	}
	if got != want {
		t.Errorf("reference = %d, direct simulation = %d", got, want)
	}
}

func TestRuntimeMatchesReference(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 5, p)
	want, err := RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 2, Alpha: 0.5, Epsilon: 0, OTMode: OTDealer}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := rt.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("MPC runtime = %d, reference = %d", got, want)
	}
	if rep.Iterations != 2 {
		t.Errorf("report iterations = %d", rep.Iterations)
	}
	if rep.TotalBytes() <= 0 {
		t.Error("no traffic recorded")
	}
	if rep.ComputeTime <= 0 || rep.CommTime <= 0 || rep.AggTime <= 0 {
		t.Errorf("phases not timed: %+v", rep)
	}
	if rep.UpdateAndGates <= 0 || rep.AggAndGates < 0 {
		t.Error("circuit sizes not reported")
	}
}

func TestRuntimeNoTransferNoise(t *testing.T) {
	// Alpha = 0 (strawman #3 communication) must still be correct.
	p := sumProgram()
	g := ringGraph(t, 4, p)
	want, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0, OTMode: OTDealer}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rt.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

func TestRuntimeWithOutputNoise(t *testing.T) {
	// With Epsilon > 0 the result is the exact aggregate plus discrete
	// Laplace noise; check it stays within a generous tail bound and that
	// across repeated aggregations the values differ (noise is live).
	p := sumProgram()
	g := ringGraph(t, 4, p)
	exact, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1.0
	seen := map[int64]bool{}
	for trial := 0; trial < 3; trial++ {
		rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0.5, Epsilon: eps, OTMode: OTDealer}, p, g)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rt.Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		diff := float64(got - exact)
		// Scale is Sensitivity/eps = 1; |noise| > 40 has probability < 1e-17.
		if math.Abs(diff) > 40 {
			t.Errorf("trial %d: noise %v implausibly large", trial, diff)
		}
		seen[got] = true
	}
	if len(seen) == 1 && seen[exact] {
		// All three trials returned the exact value — possible but ~1/8³
		// likely if noise were working; flag as suspicious only when the
		// noise circuit is provably disabled.
		rt, _ := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0.5, Epsilon: eps, OTMode: OTDealer}, p, g)
		pl, err := rt.dep.planFor(eps)
		if err != nil {
			t.Fatal(err)
		}
		if !pl.noise.Enabled() {
			t.Error("noise spec disabled despite Epsilon > 0")
		}
	}
}

func TestRuntimeIKNP(t *testing.T) {
	// Small end-to-end run over the real OT stack.
	p := sumProgram()
	g := ringGraph(t, 3, p)
	want, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0.5, OTMode: OTIKNP}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rt.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("IKNP runtime = %d, reference = %d", got, want)
	}
}

func TestRuntimeValidation(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 3, p)
	if _, err := New(context.Background(), Config{Group: nil, K: 1}, p, g); err == nil {
		t.Error("nil group accepted")
	}
	if _, err := New(context.Background(), Config{Group: tg, K: 5}, p, g); err == nil {
		t.Error("K+1 > N accepted")
	}
}

func TestNoiseSpec(t *testing.T) {
	n := DefaultNoiseSpec(0.5, 2.0, 3)
	if !n.Enabled() {
		t.Fatal("spec disabled")
	}
	if n.Shift != 3 {
		t.Errorf("shift = %d", n.Shift)
	}
	if n.RandBits() != 2*n.Trials*n.CoinBits {
		t.Error("RandBits inconsistent")
	}
	if tb := n.TailBound(); tb > 1e-8 {
		t.Errorf("tail bound %g too large", tb)
	}
	if DefaultNoiseSpec(0, 1, 0).Enabled() {
		t.Error("epsilon 0 spec enabled")
	}
}

func TestNoiseCircuitDistribution(t *testing.T) {
	// Evaluate the noise circuit on random inputs and check the sample
	// mean/variance against the discrete Laplace law.
	spec := NoiseSpec{Alpha: 0.5, Trials: 40, CoinBits: 16, Shift: 0}
	b := circuit.NewBuilder()
	rnd := b.InputWord(spec.RandBits())
	b.OutputWord(spec.Build(b, rnd, 16))
	c := b.Build()

	const samples = 3000
	var sum, sumSq float64
	for i := 0; i < samples; i++ {
		in, err := RandomInputBits(spec.RandBits())
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		v := float64(circuit.DecodeWordS(out))
		sum += v
		sumSq += v * v
	}
	mean := sum / samples
	variance := sumSq/samples - mean*mean
	// Two-sided geometric with α: variance = 2α/(1-α)² = 4 for α=0.5.
	if math.Abs(mean) > 0.3 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(variance-4) > 1.0 {
		t.Errorf("noise variance = %v, want ~4", variance)
	}
}

func TestNoiseCircuitShift(t *testing.T) {
	// With Shift = 4 every sample is a multiple of 16.
	spec := NoiseSpec{Alpha: 0.5, Trials: 16, CoinBits: 12, Shift: 4}
	b := circuit.NewBuilder()
	rnd := b.InputWord(spec.RandBits())
	b.OutputWord(spec.Build(b, rnd, 16))
	c := b.Build()
	for i := 0; i < 50; i++ {
		in, err := RandomInputBits(spec.RandBits())
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if v := circuit.DecodeWordS(out); v%16 != 0 {
			t.Fatalf("sample %d not shifted: %d", i, v)
		}
	}
}

func TestUpdateCircuitShape(t *testing.T) {
	p := sumProgram()
	c, err := p.UpdateCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	wantIn := p.StateBits + p.PrivBits(3) + 3*p.MsgBits
	if c.NumInputs != wantIn {
		t.Errorf("inputs = %d, want %d", c.NumInputs, wantIn)
	}
	wantOut := p.StateBits + 3*p.MsgBits
	if len(c.Outputs) != wantOut {
		t.Errorf("outputs = %d, want %d", len(c.Outputs), wantOut)
	}
}

func TestAggregateCircuitShape(t *testing.T) {
	p := sumProgram()
	spec := NoiseSpec{Alpha: 0.5, Trials: 8, CoinBits: 8}
	c, err := p.AggregateCircuit(4, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantIn := 4*p.StateBits + spec.RandBits()
	if c.NumInputs != wantIn {
		t.Errorf("inputs = %d, want %d", c.NumInputs, wantIn)
	}
	if len(c.Outputs) != p.AggBits {
		t.Errorf("outputs = %d, want %d", len(c.Outputs), p.AggBits)
	}
}

func TestHierarchicalAggregationMatchesFlat(t *testing.T) {
	// §3.6's aggregation tree must produce the same (un-noised) aggregate
	// as the single aggregation block.
	p := sumProgram()
	g := ringGraph(t, 9, p)
	want, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0.5, OTMode: OTDealer, AggFanIn: 3}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rt.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("tree aggregation = %d, reference = %d", got, want)
	}
}

func TestHierarchicalAggregationUnevenGroups(t *testing.T) {
	// N not divisible by the fan-in: the last group is smaller.
	p := sumProgram()
	g := ringGraph(t, 7, p)
	want, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0, OTMode: OTDealer, AggFanIn: 3}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rt.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("uneven tree aggregation = %d, reference = %d", got, want)
	}
}

func TestHierarchicalAggregationWithNoise(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 6, p)
	exact, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0.5, Epsilon: 1.0, OTMode: OTDealer, AggFanIn: 2}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rt.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - exact; diff > 40 || diff < -40 {
		t.Errorf("tree noise %d implausibly large", diff)
	}
}

func TestCombineCircuitDefaultSum(t *testing.T) {
	p := sumProgram()
	c, err := p.CombineCircuit(3, NoiseSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var in []uint8
	for _, v := range []int64{100, -30, 7} {
		in = append(in, circuit.EncodeWord(v, p.AggBits)...)
	}
	out, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := circuit.DecodeWordS(out); got != 77 {
		t.Errorf("combine = %d, want 77", got)
	}
}

// TestRuntimePrecomputedCertsMatchReference forces the certificate-table
// cache on (short runs normally skip it) and checks that a run through the
// precomputed encryption path still reproduces the reference exactly —
// the cache must not change a single group element on the wire.
func TestRuntimePrecomputedCertsMatchReference(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 5, p)
	want, err := RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 2, Alpha: 0.5, Epsilon: 0, OTMode: OTDealer}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	rt.dep.certs.Enable()
	got, _, err := rt.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("precomputed-cert runtime = %d, reference = %d", got, want)
	}
	if rt.dep.certs.Len() == 0 {
		t.Error("run did not populate the certificate-table cache")
	}
}

// TestRunCancellation cancels a simulated run mid-flight: Run must return
// the context error promptly (every blocked hub Recv is context-aware)
// instead of deadlocking the protocol goroutines.
func TestRunCancellation(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 3, p)
	rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0.5, OTMode: OTDealer}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := rt.Run(ctx, 500) // far longer than the cancel delay
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled run reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled run returned %v, want a context.Canceled chain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("canceled run did not return within 15s")
	}
}

// TestSessionQueriesMatchReference drives three RunQueryID calls with
// distinct epsilons through one standing runtime: the ε = 0 queries must
// reproduce the reference exactly, and the noised query must stay within
// the sampler's structural bound — multi-query reuse may not corrupt the
// share state between queries.
func TestSessionQueriesMatchReference(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 4, p)
	want, err := RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(context.Background(), Config{Group: tg, K: 1, Alpha: 0.5, OTMode: OTDealer}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for q := 0; q < 2; q++ {
		got, _, err := rt.RunQueryID(ctx, 1+q, 2, 0)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if got != want {
			t.Errorf("query %d = %d, want %d", q, got, want)
		}
	}
	const eps = 1.0
	got, _, err := rt.RunQueryID(ctx, 3, 2, eps)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultNoiseSpec(eps, p.Sensitivity, 0)
	bound := int64(spec.Trials) << spec.Shift
	if diff := got - want; diff < -bound || diff > bound {
		t.Errorf("noised query %d is beyond the structural bound ±%d of %d", got, bound, want)
	}
}

func TestBaseOTHandshakesEqualNodePairs(t *testing.T) {
	// Regression guard for the pairwise OT substrate: a deployment's base-OT
	// handshake count must equal the number of ordered node pairs that share
	// at least one GMW session — independent of how many block sessions each
	// pair co-occurs in (the pre-substrate stack paid 2λ base OTs per pair
	// *per session*).
	p := sumProgram()
	g := ringGraph(t, 6, p) // N=6, K=2 → 7 sessions (6 blocks + agg), heavy pair overlap
	rt, err := New(context.Background(), Config{Group: tg, K: 2, Alpha: 0.5, OTMode: OTIKNP}, p, g)
	if err != nil {
		t.Fatal(err)
	}

	// Expected: ordered pairs co-occurring in any block or the agg block.
	type pair [2]int
	coOccur := map[pair]bool{}
	addBlock := func(members []network.NodeID) {
		for _, a := range members {
			for _, b := range members {
				if a != b {
					coOccur[pair{int(a), int(b)}] = true
				}
			}
		}
	}
	sessions := 0
	for _, members := range rt.setup.Assignment.Blocks {
		addBlock(members)
		sessions++
	}
	addBlock(rt.setup.Assignment.AggBlock)
	sessions++

	got := rt.BaseOTHandshakes()
	if got != int64(len(coOccur)) {
		t.Fatalf("deployment ran %d base-OT handshakes, want %d (= ordered co-occurring pairs, over %d sessions)",
			got, len(coOccur), sessions)
	}
	// The point of the substrate: strictly fewer handshakes than the
	// per-session bootstrap would have run (each session of k+1 members
	// costs k(k+1) ordered-pair handshakes).
	perSession := int64(sessions * 3 * 2) // K+1=3 members → 6 ordered pairs each
	if got >= perSession {
		t.Errorf("handshakes %d not below per-session cost %d; substrate not shared", got, perSession)
	}

	// The deployment still computes correctly, and a second query reuses
	// the substrate without new handshakes.
	want, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		res, rep, err := rt.Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res != want {
			t.Errorf("query %d: got %d, want %d", q, res, want)
		}
		if rep.BaseOTHandshakes != got {
			t.Errorf("query %d re-ran handshakes: %d vs %d", q, rep.BaseOTHandshakes, got)
		}
		if rep.SetupTime <= 0 {
			t.Error("setup time not reported")
		}
	}
}
