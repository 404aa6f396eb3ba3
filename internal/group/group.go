// Package group provides the prime-order cyclic groups underlying DStress's
// cryptography.
//
// The paper's prototype uses the NIST/SECG curve secp384r1 (§5.1). This
// package exposes that curve (P-384), the faster P-256 curve used as the
// default benchmark group, and a multiplicative Schnorr group modulo a safe
// prime used by unit tests where thousands of exponentiations must complete
// in milliseconds. All higher layers (ElGamal, the transfer protocol, the
// trusted-party setup) are written against the Group interface and work over
// any of them.
package group

import (
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// Element is a group element. For elliptic-curve groups X and Y hold the
// affine coordinates (X=nil, Y=nil encodes the point at infinity); for
// multiplicative groups X holds the residue and Y is nil.
type Element struct {
	X, Y *big.Int
}

// Group is a prime-order cyclic group with hard discrete log.
type Group interface {
	// Name identifies the group ("p256", "p384", "modp256").
	Name() string
	// Order returns the prime order q of the group.
	Order() *big.Int
	// Generator returns the fixed generator g.
	Generator() Element
	// Identity returns the neutral element.
	Identity() Element
	// Op applies the group operation (point addition / modular product).
	Op(a, b Element) Element
	// Inv returns the inverse of a.
	Inv(a Element) Element
	// ScalarMul returns a combined with itself k times (k taken mod q).
	ScalarMul(a Element, k *big.Int) Element
	// ScalarBaseMul returns g^k; implementations may use a fast path.
	ScalarBaseMul(k *big.Int) Element
	// Equal reports whether a and b are the same element.
	Equal(a, b Element) bool
	// Encode serializes an element to a canonical byte string.
	Encode(a Element) []byte
	// Decode parses a canonical byte string; it rejects strings that do not
	// encode a valid group element.
	Decode(b []byte) (Element, error)
}

// RandomScalar draws a uniform scalar in [1, q-1].
func RandomScalar(g Group, r io.Reader) (*big.Int, error) {
	qMinus1 := new(big.Int).Sub(g.Order(), big.NewInt(1))
	k, err := rand.Int(r, qMinus1)
	if err != nil {
		return nil, fmt.Errorf("group: drawing scalar: %w", err)
	}
	return k.Add(k, big.NewInt(1)), nil
}

// MustRandomScalar is RandomScalar with crypto/rand, panicking on failure.
// Entropy exhaustion is not a recoverable condition for the protocols here.
func MustRandomScalar(g Group) *big.Int {
	k, err := RandomScalar(g, rand.Reader)
	if err != nil {
		panic(err)
	}
	return k
}

// ByName returns a registered group by its Name string.
func ByName(name string) (Group, error) {
	switch name {
	case "p256":
		return P256(), nil
	case "p384":
		return P384(), nil
	case "modp256":
		return ModP256(), nil
	default:
		return nil, fmt.Errorf("group: unknown group %q", name)
	}
}

// ---------------------------------------------------------------------------
// Elliptic-curve groups
// ---------------------------------------------------------------------------

type curveGroup struct {
	name  string
	curve elliptic.Curve
}

// P384 returns the NIST P-384 (secp384r1) group used by the paper's
// prototype.
func P384() Group { return &curveGroup{name: "p384", curve: elliptic.P384()} }

// P256 returns the NIST P-256 group; it has a constant-time assembly
// implementation in the Go runtime and is the default benchmark group.
func P256() Group { return &curveGroup{name: "p256", curve: elliptic.P256()} }

func (c *curveGroup) Name() string    { return c.name }
func (c *curveGroup) Order() *big.Int { return c.curve.Params().N }
func (c *curveGroup) Identity() Element {
	return Element{}
}

func (c *curveGroup) Generator() Element {
	p := c.curve.Params()
	return Element{X: new(big.Int).Set(p.Gx), Y: new(big.Int).Set(p.Gy)}
}

func (c *curveGroup) isInfinity(a Element) bool {
	return a.X == nil || (a.X.Sign() == 0 && a.Y.Sign() == 0)
}

func (c *curveGroup) Op(a, b Element) Element {
	if c.isInfinity(a) {
		return b
	}
	if c.isInfinity(b) {
		return a
	}
	x, y := c.curve.Add(a.X, a.Y, b.X, b.Y)
	if x.Sign() == 0 && y.Sign() == 0 {
		return Element{}
	}
	return Element{X: x, Y: y}
}

func (c *curveGroup) Inv(a Element) Element {
	if c.isInfinity(a) {
		return Element{}
	}
	negY := new(big.Int).Sub(c.curve.Params().P, a.Y)
	negY.Mod(negY, c.curve.Params().P)
	return Element{X: new(big.Int).Set(a.X), Y: negY}
}

func (c *curveGroup) ScalarMul(a Element, k *big.Int) Element {
	kk := new(big.Int).Mod(k, c.Order())
	if c.isInfinity(a) || kk.Sign() == 0 {
		return Element{}
	}
	x, y := c.curve.ScalarMult(a.X, a.Y, kk.Bytes())
	if x.Sign() == 0 && y.Sign() == 0 {
		return Element{}
	}
	return Element{X: x, Y: y}
}

func (c *curveGroup) ScalarBaseMul(k *big.Int) Element {
	kk := new(big.Int).Mod(k, c.Order())
	if kk.Sign() == 0 {
		return Element{}
	}
	x, y := c.curve.ScalarBaseMult(kk.Bytes())
	return Element{X: x, Y: y}
}

func (c *curveGroup) Equal(a, b Element) bool {
	ai, bi := c.isInfinity(a), c.isInfinity(b)
	if ai || bi {
		return ai == bi
	}
	return a.X.Cmp(b.X) == 0 && a.Y.Cmp(b.Y) == 0
}

func (c *curveGroup) Encode(a Element) []byte {
	if c.isInfinity(a) {
		return []byte{0}
	}
	return elliptic.MarshalCompressed(c.curve, a.X, a.Y)
}

func (c *curveGroup) Decode(b []byte) (Element, error) {
	if len(b) == 1 && b[0] == 0 {
		return Element{}, nil
	}
	x, y := elliptic.UnmarshalCompressed(c.curve, b)
	if x == nil {
		return Element{}, errors.New("group: invalid curve point encoding")
	}
	return Element{X: x, Y: y}, nil
}

// ---------------------------------------------------------------------------
// Multiplicative group modulo a safe prime (fast test group)
// ---------------------------------------------------------------------------

type modpGroup struct {
	name string
	p    *big.Int // safe prime, p = 2q+1
	pw   limbs    // p as four words, for the subgroup check
	q    *big.Int // group order
	g    *big.Int // generator of the order-q subgroup

	genOnce sync.Once              // lazily builds the generator table
	genMul  func(*big.Int) Element // fixed-base path for ScalarBaseMul
}

// modp256 parameters: a fixed 256-bit safe prime p = 2q+1 with quadratic
// residue generator g = 4. Generated once and hardcoded so tests are
// deterministic and fast.
var modp256 = func() *modpGroup {
	p, _ := new(big.Int).SetString("dded82b79a3261cac10826f80d0fe575d5f54e7426f7c8da2800a67647937f4f", 16)
	q, _ := new(big.Int).SetString("6ef6c15bcd1930e56084137c0687f2baeafaa73a137be46d1400533b23c9bfa7", 16)
	return &modpGroup{name: "modp256", p: p, pw: limbsOf(p.FillBytes(make([]byte, 32))), q: q, g: big.NewInt(4)}
}()

// ModP256 returns the multiplicative subgroup of order q inside Z_p^* for a
// fixed 256-bit safe prime p = 2q+1. It is roughly an order of magnitude
// faster than the curve groups for the small exponents unit tests use and is
// never selected for benchmark or end-to-end configurations that model the
// paper's deployment.
func ModP256() Group { return modp256 }

func (m *modpGroup) Name() string      { return m.name }
func (m *modpGroup) Order() *big.Int   { return m.q }
func (m *modpGroup) Identity() Element { return Element{X: big.NewInt(1)} }
func (m *modpGroup) Generator() Element {
	return Element{X: new(big.Int).Set(m.g)}
}

func (m *modpGroup) Op(a, b Element) Element {
	z := new(big.Int).Mul(a.X, b.X)
	return Element{X: z.Mod(z, m.p)}
}

func (m *modpGroup) Inv(a Element) Element {
	return Element{X: new(big.Int).ModInverse(a.X, m.p)}
}

func (m *modpGroup) ScalarMul(a Element, k *big.Int) Element {
	kk := new(big.Int).Mod(k, m.q)
	return Element{X: new(big.Int).Exp(a.X, kk, m.p)}
}

func (m *modpGroup) ScalarBaseMul(k *big.Int) Element {
	// All generator exponentiations — ephemeral keys, g^m encodings, base
	// OTs, discrete-log table walks — share one process-lifetime window
	// table (fixedbase.go) instead of paying a cold big.Int.Exp each.
	m.genOnce.Do(func() { m.genMul = m.fixedBaseWindow(m.g, modpGenWindow) })
	kk := k
	if k.Sign() < 0 || k.Cmp(m.q) >= 0 {
		kk = new(big.Int).Mod(k, m.q)
	}
	return m.genMul(kk)
}

func (m *modpGroup) Equal(a, b Element) bool {
	return a.X.Cmp(b.X) == 0
}

func (m *modpGroup) Encode(a Element) []byte {
	buf := make([]byte, 32)
	return a.X.FillBytes(buf)
}

func (m *modpGroup) Decode(b []byte) (Element, error) {
	if len(b) != 32 {
		return Element{}, fmt.Errorf("group: modp256 element must be 32 bytes, got %d", len(b))
	}
	x := new(big.Int).SetBytes(b)
	if x.Sign() <= 0 || x.Cmp(m.p) >= 0 {
		return Element{}, errors.New("group: modp256 element out of range")
	}
	// Membership in the order-q subgroup. For a safe prime p = 2q+1 the
	// order-q subgroup is exactly the quadratic residues, so the Jacobi
	// symbol decides membership: x^q ≡ (x|p) mod p for every x coprime to
	// p. Decode runs on every received ciphertext element, base-OT element
	// and certificate key, so the check sits on the transfer and setup hot
	// paths. Measured on a 2-vCPU x86 box (BenchmarkSubgroupCheck):
	// Exp(x, q, p) ≈ 25–32 µs, big.Jacobi ≈ 19–23 µs — barely cheaper — and
	// the four-word binary jacobi ≈ 3 µs.
	if jacobi(limbsOf(b), m.pw) != 1 {
		return Element{}, errors.New("group: modp256 element not in prime-order subgroup")
	}
	return Element{X: x}, nil
}
