package vertex

import (
	"math"
	"testing"

	"dstress/internal/circuit"
	"dstress/internal/group"
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
