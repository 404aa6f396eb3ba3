package group

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

func bytes32(x *big.Int) []byte { return x.FillBytes(make([]byte, 32)) }

func TestJacobiMatchesBigModP(t *testing.T) {
	// The subgroup check must accept exactly what big.Jacobi accepts:
	// random values across the whole 256-bit range (≥ p included) and the
	// edge cases.
	m := ModP256().(*modpGroup)
	p := m.p
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(p, one)
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(4),
		big.NewInt(5), big.NewInt(7), new(big.Int).Set(m.g),
		pm1,                                // −1: a non-residue, p ≡ 3 mod 4
		new(big.Int).Sub(p, big.NewInt(2)), // −2: a non-residue, p ≡ 7 mod 8
		new(big.Int).Sub(p, big.NewInt(4)), // −4 = −1·2²: a non-residue
		new(big.Int).Rsh(pm1, 1),           // (p−1)/2 = q
		new(big.Int).Set(p),                // p itself: gcd p, symbol 0
		new(big.Int).Add(p, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	}
	check := func(x *big.Int) {
		t.Helper()
		if got, want := jacobi(limbsOf(bytes32(x)), m.pw), big.Jacobi(x, p); got != want {
			t.Fatalf("jacobi(%x) = %d, big.Jacobi = %d", x, got, want)
		}
	}
	for _, x := range edges {
		check(x)
	}
	if big.Jacobi(pm1, p) != -1 {
		t.Fatal("p−1 is not a non-residue; the edge list's premise is wrong")
	}
	buf := make([]byte, 32)
	for i := 0; i < 100_000; i++ {
		if _, err := rand.Read(buf); err != nil {
			t.Fatal(err)
		}
		check(new(big.Int).SetBytes(buf))
	}
}

func TestJacobiOddModuli(t *testing.T) {
	// The algorithm is general in the odd modulus: compare with big.Jacobi
	// over random odd moduli of every size up to 256 bits.
	rng := mrand.New(mrand.NewSource(5))
	for i := 0; i < 20_000; i++ {
		nb := make([]byte, 32)
		ab := make([]byte, 32)
		rng.Read(nb)
		rng.Read(ab)
		n := new(big.Int).SetBytes(nb)
		n.Rsh(n, uint(rng.Intn(256)))
		n.SetBit(n, 0, 1)
		a := new(big.Int).SetBytes(ab)
		if i%4 == 0 {
			a.Mod(a, n)
		}
		if got, want := jacobi(limbsOf(bytes32(a)), limbsOf(bytes32(n))), big.Jacobi(a, n); got != want {
			t.Fatalf("jacobi(%x | %x) = %d, big.Jacobi = %d", a, n, got, want)
		}
	}
}

// BenchmarkSubgroupCheck compares the three ways to test modp256
// subgroup membership on a residue.
func BenchmarkSubgroupCheck(b *testing.B) {
	m := ModP256().(*modpGroup)
	x := m.ScalarBaseMul(big.NewInt(0x1234567)).X
	enc := bytes32(x)
	b.Run("exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(x, m.q, m.p)
		}
	})
	b.Run("big.Jacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			big.Jacobi(x, m.p)
		}
	})
	b.Run("jacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jacobi(limbsOf(enc), m.pw)
		}
	})
}

// FuzzDecode feeds arbitrary bytes to the decoders every received group
// element goes through. modp256 must accept exactly what the reference
// definition accepts (32 bytes, 0 < x < p, a quadratic residue); P-256
// must never panic, and whatever it accepts must re-encode to itself.
func FuzzDecode(f *testing.F) {
	m := ModP256().(*modpGroup)
	c := P256()
	f.Add([]byte{0})
	f.Add(make([]byte, 32))
	f.Add(bytes32(big.NewInt(1)))
	f.Add(bytes32(new(big.Int).Sub(m.p, big.NewInt(1))))
	f.Add(bytes32(m.p))
	f.Add(m.Encode(m.Generator()))
	f.Add(c.Encode(c.Generator()))
	f.Add(c.Encode(c.ScalarBaseMul(big.NewInt(7))))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := m.Decode(data)
		want := false
		if len(data) == 32 {
			x := new(big.Int).SetBytes(data)
			want = x.Sign() > 0 && x.Cmp(m.p) < 0 && big.Jacobi(x, m.p) == 1
		}
		if (err == nil) != want {
			t.Fatalf("modp256 Decode(%x): err = %v, reference accepts = %v", data, err, want)
		}
		e, err := c.Decode(data)
		if err == nil && !bytes.Equal(c.Encode(e), data) {
			t.Fatalf("p256 Decode(%x) accepted a non-canonical encoding: re-encodes to %x", data, c.Encode(e))
		}
	})
}
