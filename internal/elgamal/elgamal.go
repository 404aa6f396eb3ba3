// Package elgamal implements the exponential ElGamal variant that DStress's
// message-transfer protocol relies on (§3 of the paper).
//
// Plain ElGamal over a prime-order group has a multiplicative homomorphism;
// encrypting g^m instead of m (exponential ElGamal, Cramer–Gennaro–
// Schoenmakers) turns it into an additive one: the component-wise product of
// two ciphertexts decrypts to the sum of the underlying messages. The
// downside is that decryption recovers g^m, and the receiver must solve a
// small discrete log; DStress's transferred values are tiny (noised sums of
// bit shares), so a lookup table suffices (§3, "Utility" in Appendix B).
//
// The package also implements the two non-standard operations DStress needs:
//
//   - Public-key re-randomization: h = g^x becomes h^r = g^(xr), so block
//     members cannot be identified by recognizing their public keys (§3.4).
//   - Ciphertext adjustment: a ciphertext produced under h^r is converted to
//     one decryptable with the original secret key x by raising the
//     ephemeral component to r (§3, Appendix A's Adjust).
//
// Finally, it provides the Kurosawa multi-recipient optimization the
// prototype uses (§5.1): when one sender encrypts L values to L different
// public keys, the same ephemeral key y is reused, halving the number of
// exponentiations.
package elgamal

import (
	"errors"
	"fmt"
	"math/big"

	"dstress/internal/group"
)

// PublicKey is an ElGamal public key h = g^x, possibly re-randomized.
type PublicKey struct {
	Group group.Group
	H     group.Element

	// tab is an optional fixed-base table for H. Encryption raises H to a
	// fresh full-width ephemeral for every message, so long-lived keys
	// (the block-certificate keys reused across all iterations) gain a
	// multi-× speedup from precomputation; see Precompute.
	tab *group.FixedBase
}

// Precompute returns a copy of pk carrying a fixed-base table for H.
// Encrypt, EncryptWithEphemeral and EncryptMulti use the table when
// present; the ciphertexts produced are identical to the uncached path
// (same group elements, same wire encoding), only faster. The table is
// immutable, so the returned key is safe for concurrent use.
func (pk PublicKey) Precompute() PublicKey {
	pk.tab = group.Precompute(pk.Group, pk.H)
	return pk
}

// mulH returns H^y through the table when one is attached.
func (pk PublicKey) mulH(y *big.Int) group.Element {
	if pk.tab != nil {
		return pk.tab.ScalarMul(y)
	}
	return pk.Group.ScalarMul(pk.H, y)
}

// PrivateKey holds the secret exponent and the matching public key.
type PrivateKey struct {
	PublicKey
	X *big.Int
}

// Ciphertext is an ElGamal ciphertext (C1, C2) = (g^y, g^m · h^y).
type Ciphertext struct {
	C1, C2 group.Element
}

// GenerateKey draws a fresh key pair over g.
func GenerateKey(g group.Group) (*PrivateKey, error) {
	x := group.MustRandomScalar(g)
	return &PrivateKey{
		PublicKey: PublicKey{Group: g, H: g.ScalarBaseMul(x)},
		X:         x,
	}, nil
}

// Randomize returns the public key raised to r: a valid public key for the
// secret x·r that cannot be linked to the original without knowing r.
func (pk PublicKey) Randomize(r *big.Int) PublicKey {
	return PublicKey{Group: pk.Group, H: pk.Group.ScalarMul(pk.H, r)}
}

// Encrypt encrypts the small integer m under pk using exponential ElGamal:
// (g^y, g^m · h^y) for a fresh ephemeral y. Negative m is valid (the
// exponent is reduced mod q).
func (pk PublicKey) Encrypt(m int64) Ciphertext {
	y := group.MustRandomScalar(pk.Group)
	return pk.EncryptWithEphemeral(m, y)
}

// EncryptWithEphemeral encrypts m using the caller-supplied ephemeral
// scalar. Callers reusing an ephemeral across recipients must use distinct
// public keys for each value (see EncryptMulti).
func (pk PublicKey) EncryptWithEphemeral(m int64, y *big.Int) Ciphertext {
	g := pk.Group
	c1 := g.ScalarBaseMul(y)
	hy := pk.mulH(y)
	return Ciphertext{C1: c1, C2: mulGm(g, hy, m)}
}

// mulGm returns g^m·e. The transfer protocol encrypts single bits, so the
// m = 0 (no-op) and m = 1 (one generator multiplication) cases shortcut
// the general encoding.
func mulGm(g group.Group, e group.Element, m int64) group.Element {
	switch m {
	case 0:
		return e
	case 1:
		return g.Op(g.Generator(), e)
	}
	return g.Op(g.ScalarBaseMul(big.NewInt(m)), e)
}

// EncryptMulti encrypts msgs[i] under pks[i] for all i, reusing a single
// ephemeral key (the Kurosawa multi-recipient optimization). It returns one
// ciphertext per recipient; all share the same C1, which implementations may
// transmit once.
func EncryptMulti(pks []PublicKey, msgs []int64) ([]Ciphertext, error) {
	if len(pks) == 0 {
		return nil, errors.New("elgamal: no recipients")
	}
	if len(pks) != len(msgs) {
		return nil, fmt.Errorf("elgamal: %d recipients but %d messages", len(pks), len(msgs))
	}
	g := pks[0].Group
	y := group.MustRandomScalar(g)
	c1 := g.ScalarBaseMul(y)
	out := make([]Ciphertext, len(pks))
	for i, pk := range pks {
		if pk.Group != g {
			return nil, errors.New("elgamal: recipients use different groups")
		}
		out[i] = Ciphertext{C1: c1, C2: mulGm(g, pk.mulH(y), msgs[i])}
	}
	return out, nil
}

// Add homomorphically adds two ciphertexts encrypted under the same key:
// the result decrypts to the sum of the plaintexts.
func Add(g group.Group, a, b Ciphertext) Ciphertext {
	return Ciphertext{C1: g.Op(a.C1, b.C1), C2: g.Op(a.C2, b.C2)}
}

// AddPlain homomorphically adds the known constant m to a ciphertext
// without touching the ephemeral component.
func AddPlain(g group.Group, a Ciphertext, m int64) Ciphertext {
	return Ciphertext{C1: a.C1, C2: g.Op(a.C2, g.ScalarBaseMul(big.NewInt(m)))}
}

// ScalarMul multiplies the underlying plaintext by the constant k.
func ScalarMul(g group.Group, a Ciphertext, k *big.Int) Ciphertext {
	return Ciphertext{C1: g.ScalarMul(a.C1, k), C2: g.ScalarMul(a.C2, k)}
}

// Adjust converts a ciphertext encrypted under the re-randomized key h^r
// into a ciphertext decryptable with the original secret key, by raising the
// ephemeral component to r (Appendix A's Adjust function). Only the holder
// of r — node i in the transfer protocol — can perform this step; knowledge
// of the secret key is not required.
func Adjust(g group.Group, a Ciphertext, r *big.Int) Ciphertext {
	return Ciphertext{C1: g.ScalarMul(a.C1, r), C2: a.C2}
}

// DecryptPoint recovers the plaintext point g^m: s = C1^x, g^m = C2 · s⁻¹.
func (sk *PrivateKey) DecryptPoint(c Ciphertext) group.Element {
	g := sk.Group
	s := g.ScalarMul(c.C1, sk.X)
	return g.Op(c.C2, g.Inv(s))
}

// Decrypt recovers the small-integer plaintext using the supplied table.
func (sk *PrivateKey) Decrypt(c Ciphertext, table *Table) (int64, error) {
	return table.Lookup(sk.DecryptPoint(c))
}

// ---------------------------------------------------------------------------
// Discrete-log recovery
// ---------------------------------------------------------------------------

// Table maps g^m back to m for m in [Lo, Hi]. Appendix B sizes this table
// against the system's failure probability P_fail: noise values outside the
// table range make the ciphertext unrecoverable.
type Table struct {
	Group   group.Group
	Lo, Hi  int64
	entries map[string]int64
}

// NewTable precomputes g^m for all m in [lo, hi].
func NewTable(g group.Group, lo, hi int64) *Table {
	if hi < lo {
		panic("elgamal: table range inverted")
	}
	t := &Table{Group: g, Lo: lo, Hi: hi, entries: make(map[string]int64, hi-lo+1)}
	e := g.ScalarBaseMul(big.NewInt(lo))
	gen := g.Generator()
	for m := lo; m <= hi; m++ {
		t.entries[string(g.Encode(e))] = m
		e = g.Op(e, gen)
	}
	return t
}

// ErrOutOfRange reports a plaintext outside the lookup table: the "failure"
// event whose probability Appendix B bounds by choosing α_max.
var ErrOutOfRange = errors.New("elgamal: plaintext outside lookup table range")

// Lookup returns m such that point = g^m, or ErrOutOfRange.
func (t *Table) Lookup(point group.Element) (int64, error) {
	if m, ok := t.entries[string(t.Group.Encode(point))]; ok {
		return m, nil
	}
	return 0, ErrOutOfRange
}

// Size returns the number of table entries (N_l in Appendix B).
func (t *Table) Size() int64 { return t.Hi - t.Lo + 1 }
