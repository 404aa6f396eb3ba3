package circuit

import (
	"testing"
	"testing/quick"
)

func evalPrefixBinOp(width int, op func(b *Builder, x, y Word) Word, x, y int64) int64 {
	b := NewBuilder()
	xw := b.InputWord(width)
	yw := b.InputWord(width)
	b.OutputWord(op(b, xw, yw))
	c := b.Build()
	in := append(EncodeWord(x, width), EncodeWord(y, width)...)
	out, err := c.Eval(in)
	if err != nil {
		panic(err)
	}
	return DecodeWordS(out)
}

func TestAddPrefixBasics(t *testing.T) {
	cases := [][2]int64{{0, 0}, {1, 1}, {3, 5}, {255, 1}, {127, 127}, {-1, 1}, {-100, 37}}
	for _, w := range []int{1, 2, 8, 16, 31, 32} {
		for _, tc := range cases {
			got := evalPrefixBinOp(w, (*Builder).AddPrefix, tc[0], tc[1])
			want := DecodeWordS(EncodeWord(tc[0]+tc[1], w))
			if got != want {
				t.Errorf("w=%d: %d+%d = %d, want %d", w, tc[0], tc[1], got, want)
			}
		}
	}
}

func TestQuickAddPrefixMatchesRipple(t *testing.T) {
	f := func(x, y int32) bool {
		p := evalPrefixBinOp(32, (*Builder).AddPrefix, int64(x), int64(y))
		r := evalBinOpQuick(32, (*Builder).Add, int64(x), int64(y))
		return p == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubPrefix(t *testing.T) {
	sub := func(b *Builder, x, y Word) Word {
		diff, _ := b.SubPrefix(x, y)
		return diff
	}
	f := func(x, y int16) bool {
		p := evalPrefixBinOp(16, sub, int64(x), int64(y))
		return p == int64(int16(x-y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddPrefixCarryOut(t *testing.T) {
	b := NewBuilder()
	x := b.InputWord(8)
	y := b.InputWord(8)
	sum, carry := b.AddPrefixCarry(x, y)
	b.OutputWord(sum)
	b.Output(carry)
	c := b.Build()
	cases := []struct {
		x, y  int64
		carry uint8
	}{
		{200, 100, 1}, {10, 20, 0}, {255, 1, 1}, {128, 127, 0},
	}
	for _, tc := range cases {
		in := append(EncodeWord(tc.x, 8), EncodeWord(tc.y, 8)...)
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if out[8] != tc.carry {
			t.Errorf("%d+%d carry = %d, want %d", tc.x, tc.y, out[8], tc.carry)
		}
	}
}

func TestPrefixDepthAdvantage(t *testing.T) {
	// The whole point: prefix adders trade gates for depth.
	mk := func(op func(b *Builder, x, y Word) Word) *Circuit {
		b := NewBuilder()
		x := b.InputWord(64)
		y := b.InputWord(64)
		b.OutputWord(op(b, x, y))
		return b.Build()
	}
	ripple := mk((*Builder).Add)
	prefix := mk((*Builder).AddPrefix)
	if prefix.Depth() >= ripple.Depth()/3 {
		t.Errorf("prefix depth %d not ≪ ripple depth %d", prefix.Depth(), ripple.Depth())
	}
	if prefix.NumAnd <= ripple.NumAnd {
		t.Errorf("prefix gates %d ≤ ripple gates %d: trade-off missing", prefix.NumAnd, ripple.NumAnd)
	}
	// Sklansky costs ~(n/2)·log₂n prefix nodes of 2 ANDs plus n generates:
	// about (log₂n + 1)× the ripple gates at width 64.
	if prefix.NumAnd > 8*ripple.NumAnd {
		t.Errorf("prefix gates %d unexpectedly large vs ripple %d", prefix.NumAnd, ripple.NumAnd)
	}
	t.Logf("64-bit adder: ripple %d ANDs depth %d; Sklansky %d ANDs depth %d",
		ripple.NumAnd, ripple.Depth(), prefix.NumAnd, prefix.Depth())
}

func TestSumWordsTree(t *testing.T) {
	for _, count := range []int{1, 2, 3, 7, 16} {
		b := NewBuilder()
		words := make([]Word, count)
		var in []uint8
		want := int64(0)
		for i := range words {
			words[i] = b.InputWord(16)
			v := int64(i*37 - 100)
			want += v
			in = append(in, EncodeWord(v, 16)...)
		}
		b.OutputWord(b.SumWordsTree(words))
		c := b.Build()
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := DecodeWordS(out); got != int64(int16(want)) {
			t.Errorf("count=%d: sum = %d, want %d", count, got, int64(int16(want)))
		}
	}
}

func TestSumWordsTreeDepth(t *testing.T) {
	// Chained ripple adders pipeline perfectly under the AND-round
	// schedule (adder k's carry at bit i lands in the same round as adder
	// k+1's carry at bit i-1), so a linear sum already has depth ≈ width
	// regardless of word count. The tree must never be deeper, and both
	// must stay near the width rather than count·width.
	mk := func(tree bool, count int) *Circuit {
		b := NewBuilder()
		words := make([]Word, count)
		for i := range words {
			words[i] = b.InputWord(32)
		}
		if tree {
			b.OutputWord(b.SumWordsTree(words))
		} else {
			b.OutputWord(b.SumWords(words))
		}
		return b.Build()
	}
	linear := mk(false, 64)
	tree := mk(true, 64)
	if tree.Depth() > linear.Depth() {
		t.Errorf("tree depth %d exceeds linear depth %d", tree.Depth(), linear.Depth())
	}
	if linear.Depth() > 40 {
		t.Errorf("linear sum depth %d; expected ≈ width via carry pipelining", linear.Depth())
	}
	t.Logf("64-word 32-bit sum: linear depth %d / %d ANDs, tree depth %d / %d ANDs",
		linear.Depth(), linear.NumAnd, tree.Depth(), tree.NumAnd)
}

func TestSubPrefixBorrowMatchesLessU(t *testing.T) {
	for _, w := range []int{8, 10} {
		b := NewBuilder()
		x := b.InputWord(w)
		y := b.InputWord(w)
		diff, borrow := b.SubPrefix(x, y)
		b.OutputWord(diff)
		b.Output(borrow)
		b.Output(b.LessU(x, y))
		mask := uint64(1)<<w - 1
		f := &failer{t: t}
		forAllPairs(b.Build(), w, w, func(x, y, out uint64) {
			gotDiff, gotBorrow, less := out&mask, out>>w&1, out>>(w+1)&1
			want := uint64(0)
			if x < y {
				want = 1
			}
			if gotDiff != (x-y)&mask || gotBorrow != want || less != want {
				f.errorf("w=%d: %d−%d = %d borrow %d, LessU %d", w, x, y, gotDiff, gotBorrow, less)
			}
		})
	}
}

func TestDivUPrefixBorrowPaysOff(t *testing.T) {
	// The per-combinator rule: a borrow a sequential loop waits on is worth
	// the prefix form. At the EN divider's width the ripple borrow puts
	// about width² rounds in sequence.
	mk := func(op func(b *Builder, x, y Word) Word) *Circuit {
		b := NewBuilder()
		x := b.InputWord(40)
		y := b.InputWord(40)
		b.OutputWord(op(b, x, y))
		return b.Build()
	}
	ripple, prefix := mk(rippleDivU), mk((*Builder).DivU)
	if prefix.Depth()*4 > ripple.Depth() {
		t.Errorf("prefix DivU depth %d not ≪ ripple depth %d", prefix.Depth(), ripple.Depth())
	}
	t.Logf("40-bit DivU: ripple %d ANDs depth %d; prefix %d ANDs depth %d",
		ripple.NumAnd, ripple.Depth(), prefix.NumAnd, prefix.Depth())
}

// BenchmarkAdderAblation quantifies the ripple-vs-prefix trade-off under
// actual GMW-relevant metrics (gates and rounds) at build time. The rows
// pin the per-combinator rule in prefix.go: a lone prefix adder buys depth
// with gates, while the divider, whose steps wait on each borrow, gains
// rounds by an order of magnitude.
func BenchmarkAdderAblation(b *testing.B) {
	rows := []struct {
		name string
		op   func(b *Builder, x, y Word) Word
	}{
		{"add32/ripple", (*Builder).Add},
		{"add32/prefix", (*Builder).AddPrefix},
		{"divu32/ripple", rippleDivU},
		{"divu32/prefix", (*Builder).DivU},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd := NewBuilder()
				x := bd.InputWord(32)
				y := bd.InputWord(32)
				bd.OutputWord(row.op(bd, x, y))
				c := bd.Build()
				b.ReportMetric(float64(c.NumAnd), "ANDs")
				b.ReportMetric(float64(c.Depth()), "rounds")
			}
		})
	}
}
