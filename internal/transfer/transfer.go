// Package transfer implements DStress's message-transfer protocol (§3.5,
// formalized as the DStressTransfer scheme in Appendix A).
//
// Setting: a value m is XOR-shared among the k+1 members of block B_u; it
// must end up XOR-shared among the members of B_v, where (u, v) is an edge
// of the private graph. The protocol must not reveal m to any k colluders,
// must not let the blocks learn each other's identities, and must not let
// colluders across the two blocks confirm the edge's existence.
//
// Final protocol, per transferred L-bit message:
//
//  1. Each member x of B_u splits its share into k+1 one-bit-per-position
//     subshares (Strawman #2) and encrypts each subshare bitwise under the
//     re-randomized public keys of B_v's members taken from the block
//     certificate (Strawman #3), using exponential ElGamal with the
//     Kurosawa shared-ephemeral optimization (§5.1): one ephemeral per
//     (sender, recipient) bundle, L per-bit public keys.
//  2. The members of B_u send their encrypted subshares to node u — the
//     only node that knows the edge — which aggregates them with the
//     additive homomorphism: for each recipient and bit position it now
//     holds an encryption of the *sum* of subshare bits, so recipients can
//     never recognize individual subshares.
//  3. u homomorphically adds an even noise term 2·Geo(α^(2/(k+1))) to every
//     encrypted sum (the final protocol's differential-privacy defence
//     against the sum side-channel, Appendix B) and forwards the k+1
//     aggregated bundles to v.
//  4. v adjusts each bundle's ephemeral component with its secret neighbor
//     key (Appendix A's Adjust) — one exponentiation per bundle thanks to
//     the shared ephemeral — and fans the bundles out to B_v's members.
//  5. Each member of B_v decrypts its L sums with its private keys via a
//     bounded discrete-log table and takes each sum's parity as its fresh
//     share bit: even ⇒ 0, odd ⇒ 1. XOR over the members reconstructs m.
//
// Appendix A proves message privacy of the scheme under DDH; Appendix B
// derives the edge-privacy budget, implemented here by Meter.
package transfer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"dstress/internal/dp"
	"dstress/internal/elgamal"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/secretshare"
)

// Params configures a transfer instance. All participants must agree on it.
type Params struct {
	Group group.Group
	// K is the collusion bound; blocks have K+1 members.
	K int
	// L is the message bit-length (12 in the paper's prototype, 16 in the
	// Appendix B example).
	L int
	// Alpha is the geometric-noise parameter in (0,1); Alpha == 0 disables
	// noising and degrades the protocol to Strawman #3 (used by tests and
	// the ablation benchmarks).
	Alpha float64
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if p.Group == nil {
		return errors.New("transfer: nil group")
	}
	if p.K < 1 {
		return fmt.Errorf("transfer: collusion bound %d must be ≥ 1", p.K)
	}
	if p.L < 1 || p.L > 64 {
		return fmt.Errorf("transfer: message length %d must be in [1,64]", p.L)
	}
	if p.Alpha < 0 || p.Alpha >= 1 {
		return fmt.Errorf("transfer: alpha %v must be in [0,1)", p.Alpha)
	}
	return nil
}

// NoiseBound returns a magnitude B such that a single noise draw exceeds B
// with probability below pFail; the receiver's lookup table must cover
// [-B, K+1+B]. (Appendix B's N_l sizing, solved in the other direction.)
func (p Params) NoiseBound(pFail float64) int64 {
	if p.Alpha == 0 {
		return 0
	}
	alphaEff := alphaEffective(p.Alpha, p.K)
	m := int64(1)
	for dp.GeometricTail(alphaEff, m) > pFail {
		m *= 2
		if m > 1<<40 {
			break
		}
	}
	return 2 * m // noise is 2·Geo
}

// MakeTable builds a lookup table covering all decryptable sums given the
// noise bound.
func (p Params) MakeTable(pFail float64) *elgamal.Table {
	b := p.NoiseBound(pFail)
	return elgamal.NewTable(p.Group, -b, int64(p.K+1)+b)
}

func alphaEffective(alpha float64, k int) float64 {
	return math.Pow(alpha, 2/float64(k+1))
}

// ---------------------------------------------------------------------------
// Wire encodings
// ---------------------------------------------------------------------------

// bundle is the ciphertext group for one recipient: a shared ephemeral C1
// and one C2 per bit position.
type bundle struct {
	C1 group.Element
	C2 []group.Element
}

func (p Params) encodeBundle(b bundle) []byte {
	out := appendChunk(nil, p.Group.Encode(b.C1))
	for _, c2 := range b.C2 {
		out = appendChunk(out, p.Group.Encode(c2))
	}
	return out
}

func (p Params) decodeBundle(data []byte) (bundle, []byte, error) {
	var b bundle
	chunk, rest, err := splitChunk(data)
	if err != nil {
		return b, nil, err
	}
	if b.C1, err = p.Group.Decode(chunk); err != nil {
		return b, nil, fmt.Errorf("transfer: bad ephemeral: %w", err)
	}
	b.C2 = make([]group.Element, p.L)
	for i := 0; i < p.L; i++ {
		chunk, rest, err = splitChunk(rest)
		if err != nil {
			return b, nil, err
		}
		if b.C2[i], err = p.Group.Decode(chunk); err != nil {
			return b, nil, fmt.Errorf("transfer: bad component %d: %w", i, err)
		}
	}
	return b, rest, nil
}

func appendChunk(dst, chunk []byte) []byte {
	if len(chunk) > 0xffff {
		panic("transfer: chunk too large")
	}
	dst = append(dst, byte(len(chunk)), byte(len(chunk)>>8))
	return append(dst, chunk...)
}

func splitChunk(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, errors.New("transfer: truncated chunk header")
	}
	n := int(b[0]) | int(b[1])<<8
	if len(b) < 2+n {
		return nil, nil, errors.New("transfer: truncated chunk body")
	}
	return b[2 : 2+n], b[2+n:], nil
}

// ---------------------------------------------------------------------------
// Role: sending block member (x ∈ B_u)
// ---------------------------------------------------------------------------

// RecipientKeys are the re-randomized public keys from the block
// certificate: RecipientKeys[m][b] is recipient m's key for bit b.
type RecipientKeys [][]elgamal.PublicKey

// Precompute returns a copy of the certificate keys with fixed-base
// tables attached: every sender-side h^y then runs through the table
// instead of a cold exponentiation. The ciphertexts are identical to the
// uncached path, so the wire format is unchanged. Building the tables
// costs roughly a hundred exponentiations per key; see
// Params.PrecomputeWorthwhile for when a runtime should bother.
func (rk RecipientKeys) Precompute() RecipientKeys {
	out := make(RecipientKeys, len(rk))
	for m, row := range rk {
		out[m] = make([]elgamal.PublicKey, len(row))
		for b, pk := range row {
			out[m][b] = pk.Precompute()
		}
	}
	return out
}

// PrecomputeWorthwhile reports whether building fixed-base tables for a
// block certificate pays for itself when each key will be encrypted under
// `uses` times over the run: a table build costs on the order of a
// hundred uncached exponentiations. The use count depends on who holds
// the cache — a simulated deployment's engines share one cache, so all
// K+1 senders of an edge hit it ((K+1)·iterations uses per key), while a
// cluster node is a single sender (iterations uses). Short runs skip precomputation so
// tests and quick benchmarks don't regress.
func (p Params) PrecomputeWorthwhile(uses int) bool {
	return uses >= 128
}

// CertKeyCache lazily precomputes certificate keys per (vertex, slot) and
// keeps the tables until Reset. One cache serves a whole process: a cluster
// node holds its own, the in-process engines of a simulated deployment
// share one — there the K+1 senders of an edge ask for the same entry at
// once, so each entry is built exactly once behind its own sync.Once and
// the other askers wait for it.
type CertKeyCache struct {
	mu      sync.Mutex
	m       map[[2]int]*certEntry
	enabled bool
}

type certEntry struct {
	once sync.Once
	keys RecipientKeys
}

// NewCertKeyCache returns an empty, disabled cache: Keys passes raw keys
// through until Enable is called.
func NewCertKeyCache() *CertKeyCache {
	return &CertKeyCache{m: make(map[[2]int]*certEntry)}
}

// Enable turns precomputation on. It never turns it back off: once a run
// decided the tables amortize, later shorter calls must still see them.
func (c *CertKeyCache) Enable() {
	c.mu.Lock()
	c.enabled = true
	c.mu.Unlock()
}

// Reset drops every table — the certificates were re-issued — and leaves
// the enabled decision as it was.
func (c *CertKeyCache) Reset() {
	c.mu.Lock()
	c.m = make(map[[2]int]*certEntry)
	c.mu.Unlock()
}

// Len reports how many certificates have been precomputed.
func (c *CertKeyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Keys returns the certificate keys for (vertex, slot): the raw keys when
// the cache is disabled, otherwise a precomputed copy built on first use.
func (c *CertKeyCache) Keys(vertex, slot int, raw RecipientKeys) RecipientKeys {
	id := [2]int{vertex, slot}
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		return raw
	}
	e, ok := c.m[id]
	if !ok {
		e = &certEntry{}
		c.m[id] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.keys = raw.Precompute() })
	return e.keys
}

// SendShare runs the sender-member role: split the local share into K+1
// subshares, encrypt each bitwise for its recipient, and send the bundles
// to the relay node u. share must fit in L bits.
func SendShare(ctx context.Context, p Params, ep network.Transport, relay network.NodeID, tag string, share uint64, keys RecipientKeys) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(keys) != p.K+1 {
		return fmt.Errorf("transfer: certificate has %d recipients, want %d", len(keys), p.K+1)
	}
	if share&^secretshare.Mask(p.L) != 0 {
		return fmt.Errorf("transfer: share %x exceeds %d bits", share, p.L)
	}
	subs := secretshare.SplitXOR(share, p.K+1, p.L)
	var payload []byte
	for m, sub := range subs {
		if len(keys[m]) != p.L {
			return fmt.Errorf("transfer: recipient %d has %d keys, want %d", m, len(keys[m]), p.L)
		}
		bits := secretshare.Bits(sub, p.L)
		msgs := make([]int64, p.L)
		for b, bit := range bits {
			msgs[b] = int64(bit)
		}
		cts, err := elgamal.EncryptMulti(keys[m], msgs)
		if err != nil {
			return fmt.Errorf("transfer: encrypting for recipient %d: %w", m, err)
		}
		bd := bundle{C1: cts[0].C1, C2: make([]group.Element, p.L)}
		for b, ct := range cts {
			bd.C2[b] = ct.C2
		}
		payload = append(payload, p.encodeBundle(bd)...)
	}
	if err := ep.Send(relay, network.Tag(tag, "sub"), payload); err != nil {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Role: relay (node u)
// ---------------------------------------------------------------------------

// RunRelay runs node u's role: collect the K+1 members' bundles, aggregate
// homomorphically per recipient and bit, add even geometric noise, and
// forward the aggregates to the adjusting node v. noise supplies the
// randomness (dp.CryptoSource{} in production).
func RunRelay(ctx context.Context, p Params, ep network.Transport, senders []network.NodeID, peer network.NodeID, tag string, noise dp.Source) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(senders) != p.K+1 {
		return fmt.Errorf("transfer: %d senders, want %d", len(senders), p.K+1)
	}
	g := p.Group
	// agg[m] aggregates recipient m's bundle across senders.
	agg := make([]bundle, p.K+1)
	for _, s := range senders {
		data, err := ep.Recv(ctx, s, network.Tag(tag, "sub"))
		if err != nil {
			return err
		}
		for m := 0; m <= p.K; m++ {
			bd, rest, err := p.decodeBundle(data)
			if err != nil {
				return fmt.Errorf("transfer: decoding bundle from %d: %w", s, err)
			}
			data = rest
			if agg[m].C2 == nil {
				agg[m] = bd
				continue
			}
			agg[m].C1 = g.Op(agg[m].C1, bd.C1)
			for b := 0; b < p.L; b++ {
				agg[m].C2[b] = g.Op(agg[m].C2[b], bd.C2[b])
			}
		}
		if len(data) != 0 {
			return fmt.Errorf("transfer: %d trailing bytes from sender %d", len(data), s)
		}
	}
	// Noise every (recipient, bit) sum with an even geometric term so the
	// recipient's parity recovery is unaffected (§3.5 final protocol).
	var payload []byte
	for m := 0; m <= p.K; m++ {
		if p.Alpha > 0 {
			for b := 0; b < p.L; b++ {
				e := dp.TransferNoise(noise, p.Alpha, p.K)
				agg[m].C2[b] = elgamal.AddPlain(g, elgamal.Ciphertext{C1: agg[m].C1, C2: agg[m].C2[b]}, e).C2
			}
		}
		payload = append(payload, p.encodeBundle(agg[m])...)
	}
	if err := ep.Send(peer, network.Tag(tag, "agg"), payload); err != nil {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Role: adjusting node (v)
// ---------------------------------------------------------------------------

// RunAdjust runs node v's role: receive the aggregated bundles from u,
// adjust each ephemeral with the neighbor key that re-randomized the
// certificate v originally handed to u, and deliver each bundle to its
// block member.
func RunAdjust(ctx context.Context, p Params, ep network.Transport, relay network.NodeID, members []network.NodeID, neighborKey *big.Int, tag string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(members) != p.K+1 {
		return fmt.Errorf("transfer: %d members, want %d", len(members), p.K+1)
	}
	g := p.Group
	data, err := ep.Recv(ctx, relay, network.Tag(tag, "agg"))
	if err != nil {
		return err
	}
	for m := 0; m <= p.K; m++ {
		bd, rest, err := p.decodeBundle(data)
		if err != nil {
			return fmt.Errorf("transfer: decoding aggregate %d: %w", m, err)
		}
		data = rest
		// One exponentiation adjusts the whole bundle: the Kurosawa
		// optimization shares C1 across the L bit positions.
		bd.C1 = g.ScalarMul(bd.C1, neighborKey)
		if err := ep.Send(members[m], network.Tag(tag, "out"), p.encodeBundle(bd)); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("transfer: %d trailing bytes from relay", len(data))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Role: receiving block member (y ∈ B_v)
// ---------------------------------------------------------------------------

// ReceiveShare runs the receiver-member role: decrypt the L noised sums and
// recover the fresh share bit per position as the sum's parity. keys are
// the member's L private keys; table must cover [-noise, K+1+noise].
func ReceiveShare(ctx context.Context, p Params, ep network.Transport, from network.NodeID, tag string, keys []*elgamal.PrivateKey, table *elgamal.Table) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if len(keys) != p.L {
		return 0, fmt.Errorf("transfer: %d private keys, want %d", len(keys), p.L)
	}
	data, err := ep.Recv(ctx, from, network.Tag(tag, "out"))
	if err != nil {
		return 0, err
	}
	bd, rest, err := p.decodeBundle(data)
	if err != nil {
		return 0, err
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("transfer: %d trailing bytes in bundle", len(rest))
	}
	var share uint64
	for b := 0; b < p.L; b++ {
		sum, err := keys[b].Decrypt(elgamal.Ciphertext{C1: bd.C1, C2: bd.C2[b]}, table)
		if err != nil {
			return 0, fmt.Errorf("transfer: recovering bit %d: %w", b, err)
		}
		// Even sum ⇒ bit 0; odd ⇒ bit 1 (noise is always even, so parity
		// survives noising; Go's & keeps the low bit for negatives too).
		if sum&1 != 0 {
			share |= 1 << b
		}
	}
	return share, nil
}

// ---------------------------------------------------------------------------
// Edge-privacy metering (Appendix B)
// ---------------------------------------------------------------------------

// Meter tracks the edge-privacy budget consumed by message transfers. Each
// L-bit transfer over an edge exposes k·(k+1)·L noised sums to a maximal
// adversary (k corrupt members in the receiving block, each observing
// (k+1)·L sums... k members × (k+1) sender subshares × L bits), each sum
// released with ε = −ln α differential privacy (Appendix B).
type Meter struct {
	params     Params
	accountant *dp.Accountant
}

// NewMeter creates a meter with the given total edge-privacy budget.
func NewMeter(p Params, budget float64) *Meter {
	return &Meter{params: p, accountant: dp.NewAccountant(budget)}
}

// EpsilonPerTransfer returns the budget one L-bit message transfer costs.
func (m *Meter) EpsilonPerTransfer() float64 {
	if m.params.Alpha == 0 {
		return 0
	}
	eps := -math.Log(m.params.Alpha)
	return float64(m.params.K) * float64(m.params.K+1) * float64(m.params.L) * eps
}

// RecordTransfer spends one transfer's budget, failing if exhausted.
func (m *Meter) RecordTransfer() error {
	return m.accountant.Spend(m.EpsilonPerTransfer())
}

// Remaining returns the unspent edge-privacy budget.
func (m *Meter) Remaining() float64 { return m.accountant.Remaining() }
