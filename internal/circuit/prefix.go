package circuit

// Depth-optimized arithmetic. GMW pays one communication round per AND
// level (§5.2's latencies are depth-bound), so circuit depth, not just gate
// count, drives wall-clock time. The choice between the ripple forms in
// circuit.go (depth ≈ width, fewest gates) and the Sklansky forms here
// (depth ≈ log₂ width, about log₂ width × the gates) is made per
// combinator, by one rule:
//
//   - A carry or borrow that a sequential loop waits on uses the prefix
//     form. DivU's restoring steps each wait for the previous step's
//     borrow, so a ripple borrow there costs width × steps rounds in
//     strict sequence; the prefix borrow costs log₂ width × steps.
//   - Everything else stays ripple. A chain of ripple adders pipelines
//     (adder k's carry at bit i lands in the round of adder k+1's carry at
//     bit i−1), so Add, Sub, Mul, LessS and SumWords already run at depth
//     ≈ width + chain length; a chain of prefix adders does not pipeline
//     and is both deeper and larger.
//
// BenchmarkAdderAblation pins the rule with gate and round counts.

// sklansky runs the Sklansky parallel-prefix scan over n positions:
// combine(i, j) folds the running prefix of position j (j < i) into
// position i. After the scan each position holds the prefix of positions
// 0…i, at depth ⌈log₂ n⌉ combines.
func sklansky(n int, combine func(i, j int)) {
	for stride := 1; stride < n; stride *= 2 {
		for block := stride; block < n; block += 2 * stride {
			pivot := block - 1 // last index of the left group
			for i := block; i < block+stride && i < n; i++ {
				combine(i, pivot)
			}
		}
	}
}

// AddPrefix returns x+y mod 2^width using a Sklansky parallel-prefix
// carry computation: depth O(log width) instead of O(width).
func (b *Builder) AddPrefix(x, y Word) Word {
	sum, _ := b.AddPrefixCarry(x, y)
	return sum
}

// AddPrefixCarry returns x+y and the carry-out, computed with a parallel
// prefix over (generate, propagate) pairs.
func (b *Builder) AddPrefixCarry(x, y Word) (Word, Wire) {
	mustSameWidth(x, y)
	n := len(x)
	if n == 0 {
		return Word{}, WireZero
	}
	// Bit-level generate/propagate.
	prop := make([]Wire, n)
	g := make([]Wire, n)
	p := make([]Wire, n)
	for i := 0; i < n; i++ {
		g[i] = b.And(x[i], y[i])
		prop[i] = b.Xor(x[i], y[i])
		p[i] = prop[i]
	}
	// After the scan, g[i] is the carry out of position i. The group
	// generate g_i ∨ (p_i ∧ g_j) is written as an XOR because g_i = 1
	// forces p_i = 0, so the two terms are never both 1.
	sklansky(n, func(i, j int) {
		g[i] = b.Xor(g[i], b.And(p[i], g[j]))
		p[i] = b.And(p[i], p[j])
	})
	out := make(Word, n)
	out[0] = prop[0]
	for i := 1; i < n; i++ {
		out[i] = b.Xor(prop[i], g[i-1])
	}
	return out, g[n-1]
}

// SubPrefix returns x−y mod 2^width and a borrow bit that is 1 iff x < y
// as unsigned integers, at prefix depth. It is x + ¬y + 1 on AddPrefixCarry
// over width+1 bits: a bottom position (1, 1) generates the +1 as a carry
// into bit 0 and costs no gates once constant-folded.
func (b *Builder) SubPrefix(x, y Word) (Word, Wire) {
	mustSameWidth(x, y)
	xs := make(Word, len(x)+1)
	ys := make(Word, len(y)+1)
	xs[0], ys[0] = WireOne, WireOne
	copy(xs[1:], x)
	for i := range y {
		ys[i+1] = b.Not(y[i])
	}
	sum, carry := b.AddPrefixCarry(xs, ys)
	return sum[1:], b.Not(carry)
}

// SumWordsTree adds words with a balanced tree of prefix adders: depth
// O(log(#words)·log(width)) instead of O(#words·width). Used by the
// aggregation circuit when many states are summed.
func (b *Builder) SumWordsTree(words []Word) Word {
	if len(words) == 0 {
		panic("circuit: SumWordsTree needs at least one word")
	}
	for len(words) > 1 {
		next := make([]Word, 0, (len(words)+1)/2)
		for i := 0; i+1 < len(words); i += 2 {
			next = append(next, b.AddPrefix(words[i], words[i+1]))
		}
		if len(words)%2 == 1 {
			next = append(next, words[len(words)-1])
		}
		words = next
	}
	return words[0]
}
