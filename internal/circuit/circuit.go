// Package circuit provides the Boolean-circuit representation that DStress
// programs compile to.
//
// DStress executes each vertex's update function, the aggregation function,
// and the noise generator inside GMW multi-party computation, and GMW
// evaluates Boolean circuits over XOR-shared bits (§3, §3.7). This package
// supplies:
//
//   - an intermediate representation (Circuit) with XOR and AND gates —
//     XOR gates are "free" in GMW (evaluated locally on shares) while each
//     AND gate costs one interaction round of oblivious transfers;
//   - a Builder with word-level combinators (adders, subtractors,
//     comparators, multiplexers, multipliers, a restoring divider, and
//     fixed-point variants, including unit-range divide and multiply)
//     used by internal/risk to express the Eisenberg–Noe and
//     Elliott–Golub–Jackson update rules;
//   - a plaintext evaluator used by tests to check the MPC engine and by
//     the reference runtime.
//
// Gates are stored in topological (creation) order. Build additionally
// groups AND gates into interaction rounds — an AND gate's round is one more
// than the maximum round among its inputs — so the GMW engine can batch all
// oblivious transfers of a round into one message exchange. The number of
// rounds equals the circuit's multiplicative depth, the dominant latency
// term in §5.2's microbenchmarks.
package circuit

import (
	"fmt"
	"sync"
)

// Wire identifies a single-bit value in the circuit. Wires 0 and 1 are the
// public constants zero and one; input wires follow; gate outputs follow
// the inputs.
type Wire int32

// Reserved constant wires.
const (
	WireZero Wire = 0
	WireOne  Wire = 1
)

// GateKind distinguishes the two gate types of the GMW representation.
type GateKind uint8

const (
	// XOR gates are evaluated locally on shares.
	XOR GateKind = iota
	// AND gates require one oblivious-transfer interaction per party pair.
	AND
)

func (k GateKind) String() string {
	switch k {
	case XOR:
		return "XOR"
	case AND:
		return "AND"
	default:
		return fmt.Sprintf("GateKind(%d)", uint8(k))
	}
}

// Gate is a two-input gate; its output wire id is implicit (NumInputs + 2 +
// index in Gates).
type Gate struct {
	Kind GateKind
	A, B Wire
}

// Round groups the gates that become evaluatable together: first the AND
// gates (requiring interaction), then the XOR gates that depend on them.
type Round struct {
	And   []int // indices into Gates
	Local []int // indices into Gates, creation order
}

// Circuit is an immutable Boolean circuit produced by a Builder.
type Circuit struct {
	NumInputs int
	Gates     []Gate
	Outputs   []Wire
	// Rounds is the interaction schedule; len(Rounds) is the multiplicative
	// depth plus one (round 0 holds XOR gates over inputs only).
	Rounds []Round
	// NumAnd caches the AND-gate count, the cost unit for GMW traffic.
	NumAnd int

	packedOnce sync.Once
	packed     []PackedRound
}

// PackedRound is the gathered layout of one interaction round's AND batch:
// entry k holds the k-th AND gate's operand and output wire ids, so a
// word-level evaluator can gather operand bits into packed words and
// scatter results back without re-walking Gates on every evaluation.
type PackedRound struct {
	A, B, Out []Wire
}

// PackedRounds returns (building lazily, cached) the per-round gathered
// AND-batch layout aligned with Rounds.
func (c *Circuit) PackedRounds() []PackedRound {
	c.packedOnce.Do(func() {
		pr := make([]PackedRound, len(c.Rounds))
		for r, round := range c.Rounds {
			p := PackedRound{
				A:   make([]Wire, len(round.And)),
				B:   make([]Wire, len(round.And)),
				Out: make([]Wire, len(round.And)),
			}
			for k, gi := range round.And {
				g := c.Gates[gi]
				p.A[k], p.B[k], p.Out[k] = g.A, g.B, c.gateOut(gi)
			}
			pr[r] = p
		}
		c.packed = pr
	})
	return c.packed
}

// NumWires returns the total wire count (constants + inputs + gates).
func (c *Circuit) NumWires() int { return 2 + c.NumInputs + len(c.Gates) }

// gateOut returns the output wire of gate i.
func (c *Circuit) gateOut(i int) Wire { return Wire(2 + c.NumInputs + i) }

// Depth returns the multiplicative (AND) depth.
func (c *Circuit) Depth() int {
	d := len(c.Rounds) - 1
	if d < 0 {
		return 0
	}
	return d
}

// Eval evaluates the circuit on plaintext input bits (0/1), returning the
// output bits. It is the reference semantics the MPC engine is tested
// against.
func (c *Circuit) Eval(inputs []uint8) ([]uint8, error) {
	if len(inputs) != c.NumInputs {
		return nil, fmt.Errorf("circuit: got %d inputs, want %d", len(inputs), c.NumInputs)
	}
	vals := make([]uint8, c.NumWires())
	vals[WireOne] = 1
	for i, b := range inputs {
		if b > 1 {
			return nil, fmt.Errorf("circuit: input %d is not a bit: %d", i, b)
		}
		vals[2+i] = b
	}
	for i, g := range c.Gates {
		a, b := vals[g.A], vals[g.B]
		var out uint8
		switch g.Kind {
		case XOR:
			out = a ^ b
		case AND:
			out = a & b
		default:
			return nil, fmt.Errorf("circuit: unknown gate kind %v", g.Kind)
		}
		vals[c.gateOut(i)] = out
	}
	outs := make([]uint8, len(c.Outputs))
	for i, w := range c.Outputs {
		outs[i] = vals[w]
	}
	return outs, nil
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

// Word is a multi-bit value as a little-endian wire vector (Word[0] is the
// least significant bit). Words use two's-complement for signed operations.
type Word []Wire

// Builder constructs circuits incrementally. It deduplicates structurally
// identical gates and constant-folds gates whose operands are the public
// constants, which materially shrinks the word-level combinators (a ripple
// adder over a constant-padded word collapses to wiring).
type Builder struct {
	numInputs int
	gates     []Gate
	outputs   []Wire
	// round[w] is the interaction round in which wire w becomes available.
	round []int32
	// dedup maps (kind,a,b) with a<=b to an existing output wire.
	dedup map[gateKey]Wire
}

type gateKey struct {
	kind GateKind
	a, b Wire
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		round: []int32{0, 0}, // constants
		dedup: make(map[gateKey]Wire),
	}
}

// Zero returns the public constant-0 wire.
func (b *Builder) Zero() Wire { return WireZero }

// One returns the public constant-1 wire.
func (b *Builder) One() Wire { return WireOne }

// Input allocates a fresh single-bit input wire. Inputs must be allocated
// before any gate references them; the builder enforces creation order.
func (b *Builder) Input() Wire {
	if len(b.gates) > 0 {
		panic("circuit: all inputs must be allocated before gates")
	}
	w := Wire(2 + b.numInputs)
	b.numInputs++
	b.round = append(b.round, 0)
	return w
}

// InputWord allocates width consecutive input bits as a word.
func (b *Builder) InputWord(width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.Input()
	}
	return w
}

func (b *Builder) addGate(kind GateKind, a, w Wire) Wire {
	// Canonical operand order for dedup (both gate kinds are symmetric).
	if a > w {
		a, w = w, a
	}
	// Constant folding.
	switch kind {
	case XOR:
		if a == WireZero {
			return w
		}
		if a == w {
			return WireZero
		}
		if a == WireOne && w == WireOne {
			return WireZero
		}
	case AND:
		if a == WireZero {
			return WireZero
		}
		if a == WireOne {
			return w
		}
		if a == w {
			return a
		}
	}
	key := gateKey{kind, a, w}
	if out, ok := b.dedup[key]; ok {
		return out
	}
	b.gates = append(b.gates, Gate{Kind: kind, A: a, B: w})
	out := Wire(2 + b.numInputs + len(b.gates) - 1)
	r := b.round[a]
	if b.round[w] > r {
		r = b.round[w]
	}
	if kind == AND {
		r++
	}
	b.round = append(b.round, r)
	b.dedup[key] = out
	return out
}

// Xor returns a ⊕ b.
func (b *Builder) Xor(a, w Wire) Wire { return b.addGate(XOR, a, w) }

// And returns a ∧ b.
func (b *Builder) And(a, w Wire) Wire { return b.addGate(AND, a, w) }

// Not returns ¬a, encoded as a ⊕ 1.
func (b *Builder) Not(a Wire) Wire { return b.Xor(a, WireOne) }

// Or returns a ∨ b = a ⊕ b ⊕ (a ∧ b).
func (b *Builder) Or(a, w Wire) Wire {
	return b.Xor(b.Xor(a, w), b.And(a, w))
}

// Mux returns s ? a : b, costing a single AND gate: b ⊕ s∧(a⊕b).
func (b *Builder) Mux(s, a, w Wire) Wire {
	return b.Xor(w, b.And(s, b.Xor(a, w)))
}

// Output marks a wire as a circuit output.
func (b *Builder) Output(w Wire) { b.outputs = append(b.outputs, w) }

// OutputWord marks all bits of a word as outputs, LSB first.
func (b *Builder) OutputWord(w Word) {
	for _, bit := range w {
		b.Output(bit)
	}
}

// Build finalizes the circuit and computes the interaction schedule.
func (b *Builder) Build() *Circuit {
	c := &Circuit{
		NumInputs: b.numInputs,
		Gates:     b.gates,
		Outputs:   b.outputs,
	}
	maxRound := int32(0)
	for i := range b.gates {
		r := b.round[2+b.numInputs+i]
		if r > maxRound {
			maxRound = r
		}
	}
	c.Rounds = make([]Round, maxRound+1)
	for i, g := range b.gates {
		r := b.round[2+b.numInputs+i]
		if g.Kind == AND {
			c.Rounds[r].And = append(c.Rounds[r].And, i)
			c.NumAnd++
		} else {
			c.Rounds[r].Local = append(c.Rounds[r].Local, i)
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Word-level combinators
// ---------------------------------------------------------------------------

// ConstWord returns a width-bit word wired to the two's-complement encoding
// of v. Constant words cost no gates.
func (b *Builder) ConstWord(v int64, width int) Word {
	w := make(Word, width)
	for i := 0; i < width; i++ {
		if (v>>uint(i))&1 == 1 {
			w[i] = WireOne
		} else {
			w[i] = WireZero
		}
	}
	return w
}

// MuxWord selects x when s is 1, else y, bitwise.
func (b *Builder) MuxWord(s Wire, x, y Word) Word {
	mustSameWidth(x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Mux(s, x[i], y[i])
	}
	return out
}

// addFull returns (sum, carryOut) of a+b+cin using the standard 1-AND full
// adder: sum = a⊕b⊕cin, cout = cin ⊕ ((a⊕cin)∧(b⊕cin)).
func (b *Builder) addFull(a, w, cin Wire) (sum, cout Wire) {
	axc := b.Xor(a, cin)
	bxc := b.Xor(w, cin)
	sum = b.Xor(axc, w)
	cout = b.Xor(cin, b.And(axc, bxc))
	return sum, cout
}

// Add returns x+y mod 2^width via a ripple-carry adder (width-1 AND gates
// after constant folding).
func (b *Builder) Add(x, y Word) Word {
	sum, _ := b.AddCarry(x, y, WireZero)
	return sum
}

// AddCarry returns x+y+cin and the carry-out.
func (b *Builder) AddCarry(x, y Word, cin Wire) (Word, Wire) {
	mustSameWidth(x, y)
	out := make(Word, len(x))
	c := cin
	for i := range x {
		out[i], c = b.addFull(x[i], y[i], c)
	}
	return out, c
}

// Sub returns x−y mod 2^width (x + ¬y + 1).
func (b *Builder) Sub(x, y Word) Word {
	diff, _ := b.SubBorrow(x, y)
	return diff
}

// SubBorrow returns x−y and a borrow bit that is 1 iff x < y as unsigned
// integers.
func (b *Builder) SubBorrow(x, y Word) (Word, Wire) {
	mustSameWidth(x, y)
	notY := make(Word, len(y))
	for i := range y {
		notY[i] = b.Not(y[i])
	}
	diff, carry := b.AddCarry(x, notY, WireOne)
	return diff, b.Not(carry)
}

// Neg returns −x in two's complement.
func (b *Builder) Neg(x Word) Word {
	zero := b.ConstWord(0, len(x))
	return b.Sub(zero, x)
}

// LessU returns 1 iff x < y as unsigned integers.
func (b *Builder) LessU(x, y Word) Wire {
	_, borrow := b.SubBorrow(x, y)
	return borrow
}

// LessS returns 1 iff x < y as signed (two's-complement) integers:
// sign(diff) ⊕ overflow(x−y).
func (b *Builder) LessS(x, y Word) Wire {
	mustSameWidth(x, y)
	n := len(x)
	diff, _ := b.SubBorrow(x, y)
	sx, sy, sd := x[n-1], y[n-1], diff[n-1]
	// Overflow iff sign(x) != sign(y) and sign(diff) != sign(x).
	ovf := b.And(b.Xor(sx, sy), b.Xor(sx, sd))
	return b.Xor(sd, ovf)
}

// Equal returns 1 iff x == y.
func (b *Builder) Equal(x, y Word) Wire {
	mustSameWidth(x, y)
	acc := WireOne
	for i := range x {
		acc = b.And(acc, b.Not(b.Xor(x[i], y[i])))
	}
	return acc
}

// IsZero returns 1 iff x == 0.
func (b *Builder) IsZero(x Word) Wire {
	acc := WireOne
	for i := range x {
		acc = b.And(acc, b.Not(x[i]))
	}
	return acc
}

// MinS / MaxS return the signed minimum/maximum of x and y.
func (b *Builder) MinS(x, y Word) Word {
	return b.MuxWord(b.LessS(x, y), x, y)
}

// MaxS returns the signed maximum of x and y.
func (b *Builder) MaxS(x, y Word) Word {
	return b.MuxWord(b.LessS(x, y), y, x)
}

// SignExtend widens x to width bits by replicating the sign bit; it costs no
// gates.
func (b *Builder) SignExtend(x Word, width int) Word {
	if width < len(x) {
		panic("circuit: SignExtend cannot narrow")
	}
	out := make(Word, width)
	copy(out, x)
	sign := x[len(x)-1]
	for i := len(x); i < width; i++ {
		out[i] = sign
	}
	return out
}

// ZeroExtend widens x with constant zeros.
func (b *Builder) ZeroExtend(x Word, width int) Word {
	if width < len(x) {
		panic("circuit: ZeroExtend cannot narrow")
	}
	out := make(Word, width)
	copy(out, x)
	for i := len(x); i < width; i++ {
		out[i] = WireZero
	}
	return out
}

// Truncate keeps the low width bits.
func (b *Builder) Truncate(x Word, width int) Word {
	if width > len(x) {
		panic("circuit: Truncate cannot widen")
	}
	return x[:width]
}

// ShiftLeftConst shifts left by k bits, filling with zeros (free).
func (b *Builder) ShiftLeftConst(x Word, k int) Word {
	out := make(Word, len(x))
	for i := range out {
		if i < k {
			out[i] = WireZero
		} else {
			out[i] = x[i-k]
		}
	}
	return out
}

// ShiftRightArithConst shifts right by k bits, replicating the sign (free).
func (b *Builder) ShiftRightArithConst(x Word, k int) Word {
	n := len(x)
	out := make(Word, n)
	sign := x[n-1]
	for i := range out {
		if i+k < n {
			out[i] = x[i+k]
		} else {
			out[i] = sign
		}
	}
	return out
}

// Mul returns x*y mod 2^width (width = len(x) = len(y)) via shift-and-add.
func (b *Builder) Mul(x, y Word) Word {
	mustSameWidth(x, y)
	n := len(x)
	acc := b.ConstWord(0, n)
	for i := 0; i < n; i++ {
		// partial = (x << i) & replicate(y[i])
		partial := make(Word, n)
		for j := 0; j < n; j++ {
			if j < i {
				partial[j] = WireZero
			} else {
				partial[j] = b.And(x[j-i], y[i])
			}
		}
		acc = b.Add(acc, partial)
	}
	return acc
}

// DivU returns floor(x/y) for unsigned words via restoring division. When
// y == 0 every trial subtraction fits (the remainder is never below zero),
// so the quotient saturates to all ones, matching fixed.Val.Div's
// convention. Each step's borrow feeds the next step's remainder, so the
// borrow is the prefix form (SubPrefix): about n·log₂ n rounds instead of
// the n² of a ripple borrow.
func (b *Builder) DivU(x, y Word) Word {
	mustSameWidth(x, y)
	n := len(x)
	q := make(Word, n)
	// Remainder register with one guard bit.
	r := b.ConstWord(0, n+1)
	yw := b.ZeroExtend(y, n+1)
	for i := n - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		r = append(Word{x[i]}, r[:n]...)
		r, q[i] = b.restoringStep(r, yw)
	}
	return q
}

// restoringStep is one step of restoring division: it returns r−y and 1
// when r ≥ y (unsigned), else r and 0.
func (b *Builder) restoringStep(r, y Word) (Word, Wire) {
	diff, borrow := b.SubPrefix(r, y)
	fits := b.Not(borrow)
	return b.MuxWord(fits, diff, r), fits
}

// AbsS returns |x| and the original sign bit.
func (b *Builder) AbsS(x Word) (Word, Wire) {
	sign := x[len(x)-1]
	return b.MuxWord(sign, b.Neg(x), x), sign
}

// NegIf returns −x when s is 1, else x.
func (b *Builder) NegIf(s Wire, x Word) Word {
	return b.MuxWord(s, b.Neg(x), x)
}

// MulFixed multiplies two signed fixed-point words with frac fractional
// bits: widen to len+frac, multiply, arithmetic-shift right by frac,
// truncate. Semantics match fixed.Val.Mul for in-range results.
func (b *Builder) MulFixed(x, y Word, frac int) Word {
	mustSameWidth(x, y)
	n := len(x)
	wide := n + frac
	xw := b.SignExtend(x, wide)
	yw := b.SignExtend(y, wide)
	prod := b.Mul(xw, yw)
	shifted := b.ShiftRightArithConst(prod, frac)
	return b.Truncate(shifted, n)
}

// DivFixed divides two signed fixed-point words with frac fractional bits:
// quotient = (x << frac) / y, truncated toward zero, sign handled
// explicitly. Matches fixed.Val.Div for in-range results (including the
// saturation-by-all-ones convention for y == 0, whose interpretation as
// -1 raw differs from fixed's MaxInt saturation; risk circuits guard the
// denominator so the case never arises there).
func (b *Builder) DivFixed(x, y Word, frac int) Word {
	mustSameWidth(x, y)
	n := len(x)
	ax, sx := b.AbsS(x)
	ay, sy := b.AbsS(y)
	wide := n + frac
	num := b.ShiftLeftConst(b.ZeroExtend(ax, wide), frac)
	den := b.ZeroExtend(ay, wide)
	q := b.DivU(num, den)
	qn := b.Truncate(q, n)
	return b.NegIf(b.Xor(sx, sy), qn)
}

// DivFixedUnit divides unsigned words x and y with frac fractional bits
// and returns the (frac+1)-bit unsigned word min(⌊x·2^frac / y⌋, 2^frac):
// the quotient clamped to the unit range [0, 1]. A zero y saturates to 1.
// It is one prefix compare (x ≥ y is exactly the saturating case) and frac
// restoring steps on a width+1 remainder, so it needs neither DivFixed's
// sign handling nor its width+frac quotient bits. For 0 ≤ x ≤ y with y > 0
// as signed words it equals DivFixed(x, y, frac) zero-extended.
func (b *Builder) DivFixedUnit(x, y Word, frac int) Word {
	mustSameWidth(x, y)
	n := len(x)
	_, below := b.SubPrefix(x, y)
	sat := b.Not(below)
	// Below saturation x < y, so the doubled remainder fits in n+1 bits.
	r := b.ZeroExtend(x, n+1)
	yw := b.ZeroExtend(y, n+1)
	q := make(Word, frac+1)
	for i := frac - 1; i >= 0; i-- {
		r = append(Word{WireZero}, r[:n]...)
		var bit Wire
		r, bit = b.restoringStep(r, yw)
		q[i] = b.And(below, bit)
	}
	q[frac] = sat
	return q
}

// MulFixedUnit multiplies a signed n-bit fixed-point word x by an unsigned
// (frac+1)-bit word u (a unit-range value such as DivFixedUnit's) and
// returns bits [frac, frac+n) of x·u: MulFixed with u zero-extended, whose
// constant-zero high bits fold away, leaving frac+1 partial products
// instead of n+frac. frac+1 must be below n so that u is non-negative as
// an n-bit word.
func (b *Builder) MulFixedUnit(x, u Word, frac int) Word {
	n := len(x)
	if len(u) != frac+1 || frac+1 >= n {
		panic(fmt.Sprintf("circuit: MulFixedUnit needs a %d-bit multiplier narrower than %d bits, got %d", frac+1, n, len(u)))
	}
	return b.MulFixed(x, b.ZeroExtend(u, n), frac)
}

// SumWords adds a slice of equal-width words mod 2^width.
func (b *Builder) SumWords(words []Word) Word {
	if len(words) == 0 {
		panic("circuit: SumWords needs at least one word")
	}
	acc := words[0]
	for _, w := range words[1:] {
		acc = b.Add(acc, w)
	}
	return acc
}

func mustSameWidth(x, y Word) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("circuit: width mismatch %d vs %d", len(x), len(y)))
	}
}

// ---------------------------------------------------------------------------
// Word encode/decode helpers (plaintext side)
// ---------------------------------------------------------------------------

// EncodeWord converts v to width bits, little-endian two's complement.
func EncodeWord(v int64, width int) []uint8 {
	out := make([]uint8, width)
	for i := 0; i < width; i++ {
		out[i] = uint8((v >> uint(i)) & 1)
	}
	return out
}

// DecodeWordS interprets bits as a signed little-endian two's-complement
// value.
func DecodeWordS(bits []uint8) int64 {
	var v int64
	for i, b := range bits {
		v |= int64(b&1) << uint(i)
	}
	// Sign extend.
	n := len(bits)
	if n < 64 && bits[n-1]&1 == 1 {
		v |= ^int64(0) << uint(n)
	}
	return v
}

// DecodeWordU interprets bits as an unsigned little-endian value.
func DecodeWordU(bits []uint8) uint64 {
	var v uint64
	for i, b := range bits {
		v |= uint64(b&1) << uint(i)
	}
	return v
}
