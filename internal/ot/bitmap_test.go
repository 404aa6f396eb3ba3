package ot

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

// randPacked returns n random bits as packed words with a zero tail.
func randPacked(n int) []uint64 {
	w, err := RandomWords(n)
	if err != nil {
		panic(err)
	}
	return w
}

func TestWordsBytesRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw) * 8
		w := BytesToWords(raw, n)
		return bytes.Equal(WordsToBytes(w, n), raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordsMatchLegacyPacking(t *testing.T) {
	// The word layout must be the little-endian view of PackBits' byte
	// layout: bit i of the vector is bit i%64 of word i/64 AND bit i%8 of
	// byte i/8 — the property that keeps packed wire messages byte-identical
	// to the historical ones.
	f := func(raw []byte, extra uint8) bool {
		n := len(raw)
		bits := make([]uint8, n)
		for i, b := range raw {
			bits[i] = b & 1
		}
		w := BytesToWords(PackBits(bits), n)
		for i := 0; i < n; i++ {
			if Bit(w, i) != uint64(bits[i]) {
				return false
			}
		}
		return bytes.Equal(WordsToBytes(w, n), PackBits(bits))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordsToBytesMasksTail(t *testing.T) {
	w := []uint64{^uint64(0)}
	for _, n := range []int{1, 3, 7, 8, 9, 13, 63, 64} {
		out := WordsToBytes(w[:Words(n)], n)
		total := 0
		for _, b := range out {
			total += int(popcount(b))
		}
		if total != n {
			t.Errorf("n=%d: %d bits survive an all-ones word, want %d", n, total, n)
		}
	}
}

func popcount(b byte) int {
	c := 0
	for ; b != 0; b &= b - 1 {
		c++
	}
	return c
}

func TestBitbufRoundTrip(t *testing.T) {
	// Property: pushing random chunks and popping arbitrary sizes yields
	// the same bit stream in order, across word-misaligned boundaries.
	f := func(sizes []uint16) bool {
		var b bitbuf
		var want []uint64 // reference: every buffered bit, one per entry
		for _, s := range sizes {
			n := int(s % 300)
			chunk := randPacked(n)
			b.push(chunk, n)
			for i := 0; i < n; i++ {
				want = append(want, Bit(chunk, i))
			}
			if b.len() != len(want) {
				return false
			}
			// Pop a prefix of uneven size to exercise misaligned shifts.
			pop := n / 3
			if pop > b.len() {
				pop = b.len()
			}
			out := b.pop(pop)
			for i := 0; i < pop; i++ {
				if Bit(out, i) != want[0] {
					return false
				}
				want = want[1:]
			}
			// The popped slice must have a clean tail.
			MaskTail(out, pop)
		}
		// Drain the rest.
		rest := b.pop(b.len())
		for i := 0; i < len(want); i++ {
			if Bit(rest, i) != want[i] {
				return false
			}
		}
		return b.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func FuzzBitbuf(f *testing.F) {
	f.Add([]byte{3, 7, 200}, []byte{1, 5})
	f.Fuzz(func(t *testing.T, pushSizes, popSizes []byte) {
		var b bitbuf
		var want []uint64
		pi := 0
		for _, s := range pushSizes {
			n := int(s)
			chunk := randPacked(n)
			b.push(chunk, n)
			for i := 0; i < n; i++ {
				want = append(want, Bit(chunk, i))
			}
			if pi < len(popSizes) {
				pop := int(popSizes[pi]) % (b.len() + 1)
				pi++
				out := b.pop(pop)
				for i := 0; i < pop; i++ {
					if Bit(out, i) != want[i] {
						t.Fatalf("bit %d: got %d want %d", i, Bit(out, i), want[i])
					}
				}
				want = want[pop:]
			}
		}
		if b.len() != len(want) {
			t.Fatalf("buffered %d bits, want %d", b.len(), len(want))
		}
	})
}

// transposeRef is the original per-bit transpose, kept as the reference
// semantics for the 8×8-block version.
func transposeRef(cols [][]byte, m int) []byte {
	rows := make([]byte, m*Lambda/8)
	for j := 0; j < Lambda; j++ {
		col := cols[j]
		for i := 0; i < m; i++ {
			if (col[i/8]>>(i%8))&1 == 1 {
				rows[i*(Lambda/8)+j/8] |= 1 << (j % 8)
			}
		}
	}
	return rows
}

func TestTransposePackedMatchesReference(t *testing.T) {
	for _, m := range []int{8, 64, 256, 2048} {
		cols := make([][]byte, Lambda)
		for j := range cols {
			cols[j] = make([]byte, m/8)
			if _, err := rand.Read(cols[j]); err != nil {
				t.Fatal(err)
			}
		}
		got := transposePacked(cols, m)
		want := transposeRef(cols, m)
		if !bytes.Equal(got, want) {
			t.Fatalf("m=%d: packed transpose diverges from reference", m)
		}
	}
}

func TestTranspose8x8Property(t *testing.T) {
	f := func(x uint64) bool {
		y := transpose8x8(x)
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				if (x>>(8*r+c))&1 != (y>>(8*c+r))&1 {
					return false
				}
			}
		}
		return transpose8x8(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomWordsTailZero(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 127, 1000} {
		w, err := RandomWords(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != Words(n) {
			t.Fatalf("n=%d: %d words", n, len(w))
		}
		if r := n % 64; r != 0 && w[len(w)-1]>>uint(r) != 0 {
			t.Errorf("n=%d: tail bits set", n)
		}
	}
}

func TestPackedChosenOTMatchesLegacy(t *testing.T) {
	// Beaver's derandomization of a random OT into a chosen-message OT,
	// done word-wise, must agree bit-for-bit with the scalar definition:
	// y0 = m0 ⊕ w_e, y1 = m1 ⊕ w_{1−e}, out = y_c ⊕ w_ρ. No protocol runs
	// it (GMW multiplies on the random-OT correlation directly); it pins
	// the packed correlation algebra, wρ = w0 ⊕ ρ·(w0 ⊕ w1), included.
	f := func(seed int64) bool {
		const n = 97 // deliberately word- and byte-misaligned
		m0, m1, c := randPacked(n), randPacked(n), randPacked(n)
		w0, w1, rho := randPacked(n), randPacked(n), randPacked(n)
		// Scalar reference.
		wantBits := make([]uint64, n)
		for i := 0; i < n; i++ {
			if Bit(c, i) == 1 {
				wantBits[i] = Bit(m1, i)
			} else {
				wantBits[i] = Bit(m0, i)
			}
		}
		// Packed algebra.
		nW := Words(n)
		e := make([]uint64, nW)
		y0 := make([]uint64, nW)
		y1 := make([]uint64, nW)
		out := make([]uint64, nW)
		for i := 0; i < nW; i++ {
			e[i] = c[i] ^ rho[i]
			d := e[i] & (w0[i] ^ w1[i])
			y0[i] = m0[i] ^ w0[i] ^ d
			y1[i] = m1[i] ^ w1[i] ^ d
			wRho := w0[i] ^ (rho[i] & (w0[i] ^ w1[i]))
			out[i] = y0[i] ^ (c[i] & (y0[i] ^ y1[i])) ^ wRho
		}
		for i := 0; i < n; i++ {
			if Bit(out, i) != wantBits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
