package ot

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/big"

	"dstress/internal/group"
	"dstress/internal/network"
)

// Base OT: a Diffie–Hellman random OT in the style of Bellare–Micali,
// secure against honest-but-curious adversaries (DStress's threat model,
// §3.2). Each instance yields the base-OT sender two random 16-byte seeds
// (k0, k1) and the base-OT receiver its chosen seed k_s. The IKNP extension
// consumes 128 such instances per party-pair direction.
//
// Protocol per instance, over a prime-order group with generator g:
//
//	sender:   a ← Z_q,   A = g^a                      → receiver
//	receiver: b ← Z_q,   B = g^b (s=0) or A·g^b (s=1) → sender
//	sender:   k0 = KDF(B^a), k1 = KDF((B/A)^a)
//	receiver: k_s = KDF(A^b)
//
// If s = 0, B^a = g^ab = A^b, so k0 matches; (B/A)^a = g^(b−a)·a is unknown
// to the receiver. If s = 1, (B/A)^a = g^ab matches k1. The sender learns
// nothing about s because B is uniform either way.

// SeedLen is the byte length of the transferred seeds (AES-128 keys).
const SeedLen = 16

// BaseOTSend runs `count` base-OT instances as the sender, returning the
// seed pairs.
func BaseOTSend(ctx context.Context, g group.Group, ep network.Transport, peer network.NodeID, tag string, count int) (k0, k1 [][]byte, err error) {
	k0 = make([][]byte, count)
	k1 = make([][]byte, count)
	scalars := make([]*big.Int, count)
	// Send all A_j in one message.
	var blobA []byte
	for j := 0; j < count; j++ {
		a := group.MustRandomScalar(g)
		scalars[j] = a
		blobA = appendLenPrefixed(blobA, g.Encode(g.ScalarBaseMul(a)))
	}
	if err := ep.Send(peer, network.Tag(tag, "A"), blobA); err != nil {
		return nil, nil, err
	}

	blobB, err := ep.Recv(ctx, peer, network.Tag(tag, "B"))
	if err != nil {
		return nil, nil, err
	}
	for j := 0; j < count; j++ {
		var encB []byte
		encB, blobB, err = splitLenPrefixed(blobB)
		if err != nil {
			return nil, nil, fmt.Errorf("ot: base OT instance %d: %w", j, err)
		}
		B, err := g.Decode(encB)
		if err != nil {
			return nil, nil, fmt.Errorf("ot: base OT instance %d: %w", j, err)
		}
		a := scalars[j]
		Ba := g.ScalarMul(B, a)
		k0[j] = kdf(g, Ba, j, 0)
		k1[j] = kdf(g, quotientPow(g, Ba, a), j, 1)
	}
	return k0, k1, nil
}

// quotientPow returns (B/A)^a for A = g^a, given B^a: it is B^a · g^(−a²),
// so the sender's one variable-base exponentiation B^a serves both keys
// and the correction is a fixed-base one.
func quotientPow(g group.Group, Ba group.Element, a *big.Int) group.Element {
	q := g.Order()
	negA2 := new(big.Int).Mul(a, a)
	negA2.Sub(q, negA2.Mod(negA2, q))
	return g.Op(Ba, g.ScalarBaseMul(negA2))
}

// BaseOTReceive runs `count` base-OT instances as the receiver with the
// given choice bits, returning the chosen seeds.
func BaseOTReceive(ctx context.Context, g group.Group, ep network.Transport, peer network.NodeID, tag string, choices []uint8) ([][]byte, error) {
	count := len(choices)
	blobA, err := ep.Recv(ctx, peer, network.Tag(tag, "A"))
	if err != nil {
		return nil, err
	}
	As := make([]group.Element, count)
	for j := 0; j < count; j++ {
		var encA []byte
		var err error
		encA, blobA, err = splitLenPrefixed(blobA)
		if err != nil {
			return nil, fmt.Errorf("ot: base OT instance %d: %w", j, err)
		}
		As[j], err = g.Decode(encA)
		if err != nil {
			return nil, fmt.Errorf("ot: base OT instance %d: %w", j, err)
		}
	}
	seeds := make([][]byte, count)
	var blobB []byte
	for j := 0; j < count; j++ {
		b := group.MustRandomScalar(g)
		B := g.ScalarBaseMul(b)
		if choices[j]&1 == 1 {
			B = g.Op(As[j], B)
		}
		blobB = appendLenPrefixed(blobB, g.Encode(B))
		seeds[j] = kdf(g, g.ScalarMul(As[j], b), j, int(choices[j]&1))
	}
	if err := ep.Send(peer, network.Tag(tag, "B"), blobB); err != nil {
		return nil, err
	}
	return seeds, nil
}

// kdf hashes a group element into a seed, domain-separated by instance
// index and branch.
func kdf(g group.Group, e group.Element, instance, branch int) []byte {
	h := sha256.New()
	h.Write([]byte{byte(instance), byte(instance >> 8), byte(branch)})
	h.Write(g.Encode(e))
	return h.Sum(nil)[:SeedLen]
}

func appendLenPrefixed(dst, chunk []byte) []byte {
	if len(chunk) > 0xffff {
		panic("ot: chunk too large for length prefix")
	}
	dst = append(dst, byte(len(chunk)), byte(len(chunk)>>8))
	return append(dst, chunk...)
}

func splitLenPrefixed(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("truncated length prefix")
	}
	n := int(b[0]) | int(b[1])<<8
	if len(b) < 2+n {
		return nil, nil, fmt.Errorf("truncated chunk: want %d bytes, have %d", n, len(b)-2)
	}
	return b[2 : 2+n], b[2+n:], nil
}
