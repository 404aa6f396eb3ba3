// Package vertex implements DStress's programming model (§3.1) and its
// distributed runtime (§3.3–§3.6).
//
// A vertex program consists of a graph, an initial state and update
// function per vertex, an iteration count, an aggregation function, a no-op
// message, and a sensitivity bound. The runtime executes it as the paper
// prescribes: vertex states live XOR-shared inside blocks of k+1 nodes;
// computation steps are GMW multi-party computations of the update
// function's Boolean circuit; communication steps move message shares
// between blocks with the ElGamal transfer protocol of §3.5; and after the
// final computation step an aggregation block evaluates the aggregation
// function and adds Laplace noise inside MPC before anything is opened.
package vertex

import (
	"fmt"

	"dstress/internal/circuit"
)

// Program defines a DStress vertex program. All widths are in bits; words
// use two's-complement fixed point when fractional semantics are needed
// (the risk models use fixed.Frac fractional bits).
type Program struct {
	// Name identifies the program in reports.
	Name string
	// StateBits is the width of a vertex's state word.
	StateBits int
	// MsgBits is the width of messages (the L of the transfer protocol).
	MsgBits int
	// AggBits is the width of the aggregate output word.
	AggBits int
	// NoOp is the no-op message ⊥ sent on padding slots (§3.1).
	NoOp int64
	// Sensitivity bounds how much the aggregate can change when one input
	// changes (in aggregate-value units); the runtime draws the final
	// Laplace noise from Lap(Sensitivity/ε) (§3.1, §4.4).
	Sensitivity float64
	// PrivBits returns the width of the owner-supplied private input for a
	// vertex with degree bound D (e.g. Eisenberg–Noe packs cash, totalDebt
	// and the D debt/credit entries).
	PrivBits func(D int) int
	// BuildUpdate appends the update function to b. msgs has exactly D
	// entries (padding slots carry ⊥). It returns the new state and the D
	// outgoing messages (padding slots must carry ⊥ too, so communication
	// patterns leak nothing, §3.1).
	BuildUpdate func(b *circuit.Builder, D int, state, priv circuit.Word, msgs []circuit.Word) (newState circuit.Word, out []circuit.Word)
	// BuildAggregate appends the aggregation function over all vertex
	// states.
	BuildAggregate func(b *circuit.Builder, states []circuit.Word) circuit.Word
	// BuildCombine merges partial aggregates in hierarchical aggregation
	// (§3.6: "the aggregation can be performed hierarchically, using a tree
	// of aggregation blocks"). nil selects modular summation, correct for
	// every sum-shaped aggregate (both risk models' TDS). Programs whose
	// aggregation is not a plain sum must supply this to use an
	// aggregation tree.
	BuildCombine func(b *circuit.Builder, partials []circuit.Word) circuit.Word
}

// Validate checks the program's widths.
func (p *Program) Validate() error {
	if p.StateBits < 1 || p.StateBits > 64 {
		return fmt.Errorf("vertex: StateBits %d out of [1,64]", p.StateBits)
	}
	if p.MsgBits < 1 || p.MsgBits > 64 {
		return fmt.Errorf("vertex: MsgBits %d out of [1,64]", p.MsgBits)
	}
	if p.AggBits < 1 || p.AggBits > 64 {
		return fmt.Errorf("vertex: AggBits %d out of [1,64]", p.AggBits)
	}
	if p.BuildUpdate == nil || p.BuildAggregate == nil || p.PrivBits == nil {
		return fmt.Errorf("vertex: program %q missing circuit builders", p.Name)
	}
	return nil
}

// UpdateCircuit compiles the update function for degree bound D. Input
// layout: [state | priv | msg_0 … msg_{D-1}]; output layout:
// [state' | out_0 … out_{D-1}].
func (p *Program) UpdateCircuit(D int) (*circuit.Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := circuit.NewBuilder()
	state := b.InputWord(p.StateBits)
	priv := b.InputWord(p.PrivBits(D))
	msgs := make([]circuit.Word, D)
	for d := range msgs {
		msgs[d] = b.InputWord(p.MsgBits)
	}
	newState, out := p.BuildUpdate(b, D, state, priv, msgs)
	if len(newState) != p.StateBits {
		return nil, fmt.Errorf("vertex: %s update returned %d state bits, want %d", p.Name, len(newState), p.StateBits)
	}
	if len(out) != D {
		return nil, fmt.Errorf("vertex: %s update returned %d messages, want %d", p.Name, len(out), D)
	}
	b.OutputWord(newState)
	for d, w := range out {
		if len(w) != p.MsgBits {
			return nil, fmt.Errorf("vertex: %s message %d has %d bits, want %d", p.Name, d, len(w), p.MsgBits)
		}
		b.OutputWord(w)
	}
	return b.Build(), nil
}

// AggregateCircuit compiles the aggregation function over n states,
// followed by in-MPC noise sampling from the supplied noise spec; the
// circuit's extra inputs (after the n state words) are the random bits the
// aggregation-block members contribute. Output: the noised aggregate.
func (p *Program) AggregateCircuit(n int, noise NoiseSpec) (*circuit.Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := circuit.NewBuilder()
	states := make([]circuit.Word, n)
	for i := range states {
		states[i] = b.InputWord(p.StateBits)
	}
	rnd := b.InputWord(noise.RandBits())
	agg := p.BuildAggregate(b, states)
	if len(agg) != p.AggBits {
		return nil, fmt.Errorf("vertex: %s aggregate returned %d bits, want %d", p.Name, len(agg), p.AggBits)
	}
	noiseWord := noise.Build(b, rnd, p.AggBits)
	b.OutputWord(b.Add(agg, noiseWord))
	return b.Build(), nil
}

// PartialAggregateCircuit compiles the leaf level of an aggregation tree:
// the aggregation function over n states with no noise (noise is added
// exactly once, at the root).
func (p *Program) PartialAggregateCircuit(n int) (*circuit.Circuit, error) {
	return p.AggregateCircuit(n, NoiseSpec{})
}

// CombineCircuit compiles the root level of an aggregation tree: merge n
// AggBits-wide partials (BuildCombine, defaulting to modular sum), sample
// noise, output the noised aggregate.
func (p *Program) CombineCircuit(n int, noise NoiseSpec) (*circuit.Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := circuit.NewBuilder()
	partials := make([]circuit.Word, n)
	for i := range partials {
		partials[i] = b.InputWord(p.AggBits)
	}
	rnd := b.InputWord(noise.RandBits())
	var agg circuit.Word
	if p.BuildCombine != nil {
		agg = p.BuildCombine(b, partials)
	} else {
		agg = b.SumWordsTree(partials)
	}
	if len(agg) != p.AggBits {
		return nil, fmt.Errorf("vertex: %s combine returned %d bits, want %d", p.Name, len(agg), p.AggBits)
	}
	noiseWord := noise.Build(b, rnd, p.AggBits)
	b.OutputWord(b.Add(agg, noiseWord))
	return b.Build(), nil
}
