package elgamal

import (
	"math/big"
	"testing"
	"testing/quick"

	"dstress/internal/group"
)

var tg = group.ModP256()

func mustKey(t testing.TB) *PrivateKey {
	t.Helper()
	k, err := GenerateKey(tg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, -64, 64)
	for _, m := range []int64{0, 1, -1, 5, -5, 63, -64} {
		c := sk.PublicKey.Encrypt(m)
		got, err := sk.Decrypt(c, table)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", m, err)
		}
		if got != m {
			t.Errorf("Decrypt(Encrypt(%d)) = %d", m, got)
		}
	}
}

func TestDecryptOutOfRange(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, -4, 4)
	c := sk.PublicKey.Encrypt(100)
	if _, err := sk.Decrypt(c, table); err != ErrOutOfRange {
		t.Errorf("expected ErrOutOfRange, got %v", err)
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, -16, 16)
	a := sk.PublicKey.Encrypt(5)
	b := sk.PublicKey.Encrypt(-3)
	sum := Add(tg, a, b)
	got, err := sk.Decrypt(sum, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("5 + (-3) decrypted to %d", got)
	}
}

func TestHomomorphicAddChain(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, 0, 64)
	acc := sk.PublicKey.Encrypt(0)
	want := int64(0)
	for i := int64(1); i <= 10; i++ {
		acc = Add(tg, acc, sk.PublicKey.Encrypt(i))
		want += i
	}
	got, err := sk.Decrypt(acc, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestAddPlain(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, -16, 16)
	c := AddPlain(tg, sk.PublicKey.Encrypt(3), 4)
	got, err := sk.Decrypt(c, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("3+4 = %d", got)
	}
}

func TestScalarMul(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, -64, 64)
	c := ScalarMul(tg, sk.PublicKey.Encrypt(5), big.NewInt(7))
	got, err := sk.Decrypt(c, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 35 {
		t.Errorf("5*7 = %d", got)
	}
}

func TestKeyRandomizationAndAdjust(t *testing.T) {
	// The core trick of §3.4/§3.5: encrypt under h^r, then Adjust with r so
	// the original secret key decrypts.
	sk := mustKey(t)
	table := NewTable(tg, -16, 16)
	r := group.MustRandomScalar(tg)
	rpk := sk.PublicKey.Randomize(r)

	c := rpk.Encrypt(9)
	// Without adjustment, decryption under the original key must fail.
	if m, err := sk.Decrypt(c, table); err == nil && m == 9 {
		t.Fatal("unadjusted ciphertext decrypted correctly; randomization is broken")
	}
	adj := Adjust(tg, c, r)
	got, err := sk.Decrypt(adj, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("adjusted decrypt = %d, want 9", got)
	}
}

func TestRandomizedKeysUnlinkable(t *testing.T) {
	// Two re-randomizations of the same key must differ from each other and
	// from the original (with overwhelming probability).
	sk := mustKey(t)
	r1 := group.MustRandomScalar(tg)
	r2 := group.MustRandomScalar(tg)
	p1 := sk.PublicKey.Randomize(r1)
	p2 := sk.PublicKey.Randomize(r2)
	if tg.Equal(p1.H, sk.PublicKey.H) || tg.Equal(p2.H, sk.PublicKey.H) || tg.Equal(p1.H, p2.H) {
		t.Error("re-randomized keys collide")
	}
}

func TestAdjustThenHomomorphicAdd(t *testing.T) {
	// The transfer protocol aggregates ciphertexts under the randomized key
	// and adjusts the aggregate; verify the operations commute.
	sk := mustKey(t)
	table := NewTable(tg, -32, 32)
	r := group.MustRandomScalar(tg)
	rpk := sk.PublicKey.Randomize(r)

	c1 := rpk.Encrypt(4)
	c2 := rpk.Encrypt(6)
	sum := Add(tg, c1, c2)
	adj := Adjust(tg, sum, r)
	got, err := sk.Decrypt(adj, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("4+6 after adjust = %d", got)
	}
}

func TestEncryptMulti(t *testing.T) {
	const n = 5
	sks := make([]*PrivateKey, n)
	pks := make([]PublicKey, n)
	msgs := make([]int64, n)
	for i := range sks {
		sks[i] = mustKey(t)
		pks[i] = sks[i].PublicKey
		msgs[i] = int64(i * 3)
	}
	cts, err := EncryptMulti(pks, msgs)
	if err != nil {
		t.Fatal(err)
	}
	table := NewTable(tg, 0, 32)
	for i, ct := range cts {
		got, err := sks[i].Decrypt(ct, table)
		if err != nil {
			t.Fatal(err)
		}
		if got != msgs[i] {
			t.Errorf("recipient %d got %d, want %d", i, got, msgs[i])
		}
		if i > 0 && !tg.Equal(ct.C1, cts[0].C1) {
			t.Error("multi-recipient ciphertexts do not share the ephemeral component")
		}
	}
}

func TestEncryptMultiErrors(t *testing.T) {
	if _, err := EncryptMulti(nil, nil); err == nil {
		t.Error("EncryptMulti accepted zero recipients")
	}
	sk := mustKey(t)
	if _, err := EncryptMulti([]PublicKey{sk.PublicKey}, []int64{1, 2}); err == nil {
		t.Error("EncryptMulti accepted mismatched lengths")
	}
}

func TestCiphertextsRandomized(t *testing.T) {
	sk := mustKey(t)
	a := sk.PublicKey.Encrypt(1)
	b := sk.PublicKey.Encrypt(1)
	if tg.Equal(a.C1, b.C1) && tg.Equal(a.C2, b.C2) {
		t.Error("two encryptions of the same message are identical")
	}
}

func TestTableSize(t *testing.T) {
	table := NewTable(tg, -5, 5)
	if table.Size() != 11 {
		t.Errorf("Size = %d, want 11", table.Size())
	}
}

// Property: homomorphic addition matches integer addition for small values.
func TestQuickHomomorphism(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, -300, 300)
	f := func(a, b int8) bool {
		ca := sk.PublicKey.Encrypt(int64(a))
		cb := sk.PublicKey.Encrypt(int64(b))
		m, err := sk.Decrypt(Add(tg, ca, cb), table)
		return err == nil && m == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Adjust ∘ Encrypt(h^r) == Encrypt(h) as far as decryption is
// concerned, for random r.
func TestQuickAdjust(t *testing.T) {
	sk := mustKey(t)
	table := NewTable(tg, -200, 200)
	f := func(m int8) bool {
		r := group.MustRandomScalar(tg)
		c := sk.PublicKey.Randomize(r).Encrypt(int64(m))
		got, err := sk.Decrypt(Adjust(tg, c, r), table)
		return err == nil && got == int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk := mustKey(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.PublicKey.Encrypt(7)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	sk := mustKey(b)
	table := NewTable(tg, -64, 64)
	c := sk.PublicKey.Encrypt(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(c, table); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomomorphicAdd(b *testing.B) {
	sk := mustKey(b)
	c := sk.PublicKey.Encrypt(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Add(tg, c, c)
	}
}

// TestPrecomputedKeyCiphertextsIdentical pins the wire-compatibility
// contract of Precompute: under the same ephemeral, a precomputed key
// produces byte-for-byte the same ciphertext as the plain key, for every
// group and for the message edge cases (bits, negatives, table bounds).
func TestPrecomputedKeyCiphertextsIdentical(t *testing.T) {
	for _, g := range []group.Group{group.ModP256(), group.P256(), group.P384()} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			t.Parallel()
			sk, err := GenerateKey(g)
			if err != nil {
				t.Fatal(err)
			}
			pre := sk.PublicKey.Precompute()
			for i := 0; i < 4; i++ {
				y := group.MustRandomScalar(g)
				for _, m := range []int64{0, 1, -1, 2, -17, 4095} {
					a := sk.PublicKey.EncryptWithEphemeral(m, y)
					b := pre.EncryptWithEphemeral(m, y)
					if string(g.Encode(a.C1)) != string(g.Encode(b.C1)) ||
						string(g.Encode(a.C2)) != string(g.Encode(b.C2)) {
						t.Fatalf("m=%d: precomputed ciphertext differs from plain", m)
					}
				}
			}
		})
	}
}

// TestEncryptMultiPrecomputedKeys checks the multi-recipient path: mixed
// plain and precomputed keys with a shared ephemeral stay byte-identical
// and decrypt correctly.
func TestEncryptMultiPrecomputedKeys(t *testing.T) {
	var sks []*PrivateKey
	var mixed []PublicKey
	for i := 0; i < 4; i++ {
		sk := mustKey(t)
		sks = append(sks, sk)
		if i%2 == 0 {
			mixed = append(mixed, sk.PublicKey.Precompute())
		} else {
			mixed = append(mixed, sk.PublicKey)
		}
	}
	msgs := []int64{0, 1, -2, 31}
	cts, err := EncryptMulti(mixed, msgs)
	if err != nil {
		t.Fatal(err)
	}
	table := NewTable(tg, -64, 64)
	for i, ct := range cts {
		got, err := sks[i].Decrypt(ct, table)
		if err != nil {
			t.Fatalf("recipient %d: %v", i, err)
		}
		if got != msgs[i] {
			t.Errorf("recipient %d: got %d want %d", i, got, msgs[i])
		}
	}
}
