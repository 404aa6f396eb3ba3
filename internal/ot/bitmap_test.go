package ot

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

// randPacked returns n random bits as packed words with a zero tail.
func randPacked(n int) []uint64 {
	buf := make([]byte, (n+7)/8)
	if _, err := rand.Read(buf); err != nil {
		panic(err)
	}
	return BytesToWords(buf, n)
}

// wordsToBytes is PutWords into a fresh (n+7)/8-byte bitmap.
func wordsToBytes(w []uint64, n int) []byte {
	out := make([]byte, (n+7)/8)
	PutWords(out, w, n)
	return out
}

func TestWordsBytesRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw) * 8
		w := BytesToWords(raw, n)
		return bytes.Equal(wordsToBytes(w, n), raw)
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
		return bytes.Equal(wordsToBytes(w, n), PackBits(bits))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordsToBytesMasksTail(t *testing.T) {
	w := []uint64{^uint64(0)}
	for _, n := range []int{1, 3, 7, 8, 9, 13, 63, 64} {
		out := wordsToBytes(w[:Words(n)], n)
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

func TestWordAtRoundTrip(t *testing.T) {
	// Property: words ORed in at arbitrary bit offsets, back to back, read
	// back in order across word-misaligned boundaries, and a reader past
	// the last word sees zeros.
	f := func(off uint8, xs []uint64) bool {
		o := int(off % 64)
		v := make([]uint64, Words(o+64*len(xs)))
		for k, x := range xs {
			orWordAt(v, o+64*k, x)
		}
		for k, x := range xs {
			if WordAt(v, o+64*k) != x {
				return false
			}
		}
		for i := 0; i < o; i++ {
			if Bit(v, i) != 0 {
				return false
			}
		}
		return len(xs) == 0 || WordAt(v, o+64*len(xs)-1)>>1 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// transposeRef is the original per-bit transpose, kept as the reference
// semantics for the 8×8-block version: λ columns of m/8 bytes each, back
// to back, into m rows of λ/8 bytes.
func transposeRef(cols []byte, m int) []byte {
	rows := make([]byte, m*rowBytes)
	for j := 0; j < Lambda; j++ {
		col := cols[j*m/8 : (j+1)*m/8]
		for i := 0; i < m; i++ {
			if (col[i/8]>>(i%8))&1 == 1 {
				rows[i*rowBytes+j/8] |= 1 << (j % 8)
			}
		}
	}
	return rows
}

func TestTransposePackedMatchesReference(t *testing.T) {
	for _, m := range []int{64, 256, 2048} {
		cols := make([]byte, Lambda*m/8)
		if _, err := rand.Read(cols); err != nil {
			t.Fatal(err)
		}
		want := transposeRef(cols, m)
		rows := make([]byte, stripBytes)
		for b := 0; b < m/64; b++ {
			transposePacked(rows, cols, m/8, b)
			if !bytes.Equal(rows, want[b*stripBytes:(b+1)*stripBytes]) {
				t.Fatalf("m=%d strip %d: packed transpose diverges from reference", m, b)
			}
		}
	}
}

func TestTranspose64Property(t *testing.T) {
	f := func(x [64]uint64) bool {
		y := x
		transpose64(&y)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				if (x[r]>>c)&1 != (y[c]>>r)&1 {
					return false
				}
			}
		}
		transpose64(&y)
		return y == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
