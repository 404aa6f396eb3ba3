package circuit

import "testing"

// evalLanes evaluates c on 64 input vectors at once: bit l of in[i] is
// input i of lane l, and bit l of entry k of the result is output k of
// lane l.
func evalLanes(c *Circuit, in []uint64) []uint64 {
	vals := make([]uint64, c.NumWires())
	vals[WireOne] = ^uint64(0)
	copy(vals[2:], in)
	for i, g := range c.Gates {
		if g.Kind == AND {
			vals[c.gateOut(i)] = vals[g.A] & vals[g.B]
		} else {
			vals[c.gateOut(i)] = vals[g.A] ^ vals[g.B]
		}
	}
	out := make([]uint64, len(c.Outputs))
	for k, w := range c.Outputs {
		out[k] = vals[w]
	}
	return out
}

// forAllPairs evaluates c, whose inputs are an xw-bit word followed by a
// yw-bit word, on every (x, y) and calls check with the output bits read
// as one unsigned integer (output 0 is the least significant bit).
func forAllPairs(c *Circuit, xw, yw int, check func(x, y, out uint64)) {
	n := xw + yw
	total := uint64(1) << n
	in := make([]uint64, n)
	for base := uint64(0); base < total; base += 64 {
		lanes := min(64, total-base)
		for i := range in {
			in[i] = 0
		}
		for l := uint64(0); l < lanes; l++ {
			for i := 0; i < n; i++ {
				in[i] |= ((base + l) >> i & 1) << l
			}
		}
		out := evalLanes(c, in)
		for l := uint64(0); l < lanes; l++ {
			var o uint64
			for k := range out {
				o |= (out[k] >> l & 1) << k
			}
			v := base + l
			check(v&(1<<xw-1), v>>xw, o)
		}
	}
}

// rippleDivU is DivU with a ripple borrow in every restoring step: the
// divider as it was before the prefix subtractor, kept as the equivalence
// oracle and the ablation's baseline.
func rippleDivU(b *Builder, x, y Word) Word {
	mustSameWidth(x, y)
	n := len(x)
	q := make(Word, n)
	r := b.ConstWord(0, n+1)
	yw := b.ZeroExtend(y, n+1)
	for i := n - 1; i >= 0; i-- {
		r = append(Word{x[i]}, r[:n]...)
		diff, borrow := b.SubBorrow(r, yw)
		fits := b.Not(borrow)
		q[i] = fits
		r = b.MuxWord(fits, diff, r)
	}
	return q
}

// failer reports at most a few mismatches of an exhaustive sweep.
type failer struct {
	t   *testing.T
	bad int
}

func (f *failer) errorf(format string, args ...any) {
	f.t.Helper()
	if f.bad++; f.bad <= 5 {
		f.t.Errorf(format, args...)
	}
}

func TestDivUMatchesRippleExhaustive(t *testing.T) {
	for _, w := range []int{8, 10} {
		b := NewBuilder()
		x := b.InputWord(w)
		y := b.InputWord(w)
		b.OutputWord(b.DivU(x, y))
		b.OutputWord(rippleDivU(b, x, y))
		mask := uint64(1)<<w - 1
		f := &failer{t: t}
		forAllPairs(b.Build(), w, w, func(x, y, out uint64) {
			got, ripple := out&mask, out>>w
			want := mask // y = 0 saturates to all ones
			if y != 0 {
				want = x / y
			}
			if got != ripple || got != want {
				f.errorf("w=%d: %d/%d: prefix %d, ripple %d, want %d", w, x, y, got, ripple, want)
			}
		})
	}
}

// unitCases are the (width, frac) pairs the unit-range combinators are
// checked at exhaustively: frac+1 < width throughout, as MulFixedUnit
// requires and the EN program has (24, 16).
var unitCases = [][2]int{{8, 3}, {8, 6}, {10, 4}, {10, 8}}

func TestDivFixedUnitExhaustive(t *testing.T) {
	for _, tc := range unitCases {
		w, frac := tc[0], tc[1]
		b := NewBuilder()
		x := b.InputWord(w)
		y := b.InputWord(w)
		b.OutputWord(b.DivFixedUnit(x, y, frac))
		b.OutputWord(b.DivFixed(x, y, frac))
		unitMask := uint64(1)<<(frac+1) - 1
		half := uint64(1) << (w - 1)
		f := &failer{t: t}
		forAllPairs(b.Build(), w, w, func(x, y, out uint64) {
			got, signed := out&unitMask, out>>(frac+1)
			want := uint64(1) << frac
			if y != 0 && x < y {
				want = x << frac / y
			}
			if got != want {
				f.errorf("w=%d frac=%d: DivFixedUnit(%d, %d) = %d, want %d", w, frac, x, y, got, want)
			}
			// On the EN program's domain, 0 ≤ x ≤ y with y > 0 as signed
			// words, it is DivFixed zero-extended.
			if 0 < y && y < half && x <= y && got != signed {
				f.errorf("w=%d frac=%d: DivFixedUnit(%d, %d) = %d, DivFixed %d", w, frac, x, y, got, signed)
			}
		})
	}
}

func TestMulFixedUnitMatchesMulFixedExhaustive(t *testing.T) {
	for _, tc := range unitCases {
		w, frac := tc[0], tc[1]
		b := NewBuilder()
		x := b.InputWord(w)
		u := b.InputWord(frac + 1)
		b.OutputWord(b.MulFixedUnit(x, u, frac))
		b.OutputWord(b.MulFixed(x, b.ZeroExtend(u, w), frac))
		mask := uint64(1)<<w - 1
		f := &failer{t: t}
		forAllPairs(b.Build(), w, frac+1, func(x, u, out uint64) {
			got, full := out&mask, out>>w
			xs := DecodeWordS(EncodeWord(int64(x), w))
			want := uint64(xs*int64(u)>>frac) & mask
			if got != full || got != want {
				f.errorf("w=%d frac=%d: %d·%d: unit %d, MulFixed %d, want %d", w, frac, xs, u, got, full, want)
			}
		})
	}
}

func TestUnitCombinatorsShrinkEN(t *testing.T) {
	// At the EN program's shape (24-bit words, 16 fractional bits) the
	// unit-range divide and multiply must beat the general forms on both
	// gates and rounds, or they are not worth a combinator.
	const w, frac = 24, 16
	build := func(unit bool) *Circuit {
		b := NewBuilder()
		x := b.InputWord(w)
		y := b.InputWord(w)
		debt := b.InputWord(w)
		if unit {
			b.OutputWord(b.MulFixedUnit(debt, b.DivFixedUnit(x, y, frac), frac))
		} else {
			b.OutputWord(b.MulFixed(debt, b.DivFixed(x, y, frac), frac))
		}
		return b.Build()
	}
	general, unit := build(false), build(true)
	if unit.NumAnd >= general.NumAnd || unit.Depth() >= general.Depth() {
		t.Errorf("unit-range %d ANDs / %d rounds, general %d / %d",
			unit.NumAnd, unit.Depth(), general.NumAnd, general.Depth())
	}
	t.Logf("24-bit divide+multiply: general %d ANDs / %d rounds, unit-range %d / %d",
		general.NumAnd, general.Depth(), unit.NumAnd, unit.Depth())
}

func TestMulFixedUnitRejectsWideMultiplier(t *testing.T) {
	b := NewBuilder()
	x := b.InputWord(8)
	u := b.InputWord(8)
	defer func() {
		if recover() == nil {
			t.Error("MulFixedUnit accepted a multiplier as wide as the word")
		}
	}()
	b.MulFixedUnit(x, u, 7)
}
