package secretshare

import (
	"testing"
	"testing/quick"
)

func TestSplitCombineXOR(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 20} {
		for _, bits := range []int{1, 12, 16, 32, 64} {
			v := randWord(bits)
			shares := SplitXOR(v, n, bits)
			if len(shares) != n {
				t.Fatalf("n=%d bits=%d: got %d shares", n, bits, len(shares))
			}
			if got := CombineXOR(shares); got != v {
				t.Errorf("n=%d bits=%d: combine = %x, want %x", n, bits, got, v)
			}
			for _, s := range shares {
				if s&^Mask(bits) != 0 {
					t.Errorf("share has bits above %d: %x", bits, s)
				}
			}
		}
	}
}

func TestSingleShareIsValue(t *testing.T) {
	if got := SplitXOR(0xabc, 1, 12)[0]; got != 0xabc {
		t.Errorf("1-share XOR split = %x", got)
	}
}

func TestBitsRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 7, 12, 33, 64} {
		v := randWord(bits)
		b := Bits(v, bits)
		if len(b) != bits {
			t.Fatalf("Bits returned %d entries, want %d", len(b), bits)
		}
		var got Word
		for i, bit := range b {
			got |= Word(bit) << i
		}
		if got != v {
			t.Errorf("round trip bits=%d: %x != %x", bits, got, v)
		}
	}
}

func TestBitsLSBFirst(t *testing.T) {
	b := Bits(0b0110, 4)
	want := []uint8{0, 1, 1, 0}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("Bits(0b0110) = %v, want %v", b, want)
		}
	}
}

func TestShareUniformity(t *testing.T) {
	// With 2 shares of a fixed value, the first share should look uniform:
	// check each bit is set roughly half the time.
	const bits = 16
	const trials = 4000
	counts := make([]int, bits)
	for i := 0; i < trials; i++ {
		s := SplitXOR(0x1234, 2, bits)
		for b := 0; b < bits; b++ {
			counts[b] += int((s[0] >> b) & 1)
		}
	}
	for b, c := range counts {
		frac := float64(c) / trials
		if frac < 0.42 || frac > 0.58 {
			t.Errorf("bit %d of first share set with frequency %.3f; shares are biased", b, frac)
		}
	}
}

func TestQuickXORRoundTrip(t *testing.T) {
	f := func(v uint64, nRaw uint8) bool {
		n := int(nRaw%19) + 1
		shares := SplitXOR(v, n, 64)
		return CombineXOR(shares) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMask(t *testing.T) {
	if Mask(12) != 0xfff {
		t.Errorf("Mask(12) = %x", Mask(12))
	}
	if Mask(64) != ^uint64(0) {
		t.Errorf("Mask(64) = %x", Mask(64))
	}
}
