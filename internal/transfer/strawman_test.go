package transfer

import (
	"context"
	"fmt"
	"math/big"

	"dstress/internal/elgamal"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/secretshare"
)

// Strawman protocols from §3.5, kept as the reference implementations the
// tests compare the final protocol against (TestAggregationCompressesTraffic
// measures what homomorphic aggregation saves over Strawman #2).
//
//   - Strawman #1: each member of B_u encrypts its *whole share* for one
//     member of B_v. Flaw: a single node sitting in (or colluding across)
//     both blocks learns two shares, weakening collusion resistance.
//   - Strawman #2: shares are split into subshares, one per recipient, so
//     colluders always miss the subshare exchanged between the two honest
//     members. Flaw: colluders can recognize *their own* subshare bytes on
//     the far side and confirm the edge exists.
//   - Strawman #3 is the final protocol with Alpha = 0 (bitwise encryption
//     + homomorphic aggregation, no noise): recipients see only sums, but
//     the sums themselves still leak a little; the final protocol noises
//     them (set Alpha > 0).

// Strawman1Send encrypts the member's whole share for a single recipient
// (the member's own index) and sends it to the relay.
func Strawman1Send(_ context.Context, p Params, ep network.Transport, relay network.NodeID, tag string, selfIdx int, share uint64, keys RecipientKeys) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bits := secretshare.Bits(share, p.L)
	msgs := make([]int64, p.L)
	for b, bit := range bits {
		msgs[b] = int64(bit)
	}
	cts, err := elgamal.EncryptMulti(keys[selfIdx], msgs)
	if err != nil {
		return err
	}
	bd := bundle{C1: cts[0].C1, C2: make([]group.Element, p.L)}
	for b, ct := range cts {
		bd.C2[b] = ct.C2
	}
	if err := ep.Send(relay, network.Tag(tag, "s1", selfIdx), p.encodeBundle(bd)); err != nil {
		return err
	}
	return nil
}

// Strawman1Relay forwards the per-member ciphertexts unmodified.
func Strawman1Relay(ctx context.Context, p Params, ep network.Transport, senders []network.NodeID, peer network.NodeID, tag string) error {
	for idx, s := range senders {
		data, err := ep.Recv(ctx, s, network.Tag(tag, "s1", idx))
		if err != nil {
			return err
		}
		if err := ep.Send(peer, network.Tag(tag, "s1fwd", idx), data); err != nil {
			return err
		}
	}
	return nil
}

// Strawman1Adjust adjusts each forwarded bundle and delivers it to the
// matching member of B_v.
func Strawman1Adjust(ctx context.Context, p Params, ep network.Transport, relay network.NodeID, members []network.NodeID, neighborKey *big.Int, tag string) error {
	g := p.Group
	for idx, m := range members {
		data, err := ep.Recv(ctx, relay, network.Tag(tag, "s1fwd", idx))
		if err != nil {
			return err
		}
		bd, _, err := p.decodeBundle(data)
		if err != nil {
			return err
		}
		bd.C1 = g.ScalarMul(bd.C1, neighborKey)
		if err := ep.Send(m, network.Tag(tag, "s1out"), p.encodeBundle(bd)); err != nil {
			return err
		}
	}
	return nil
}

// Strawman1Receive decrypts the member's share directly. The decrypted
// values are the sender's exact share bits — the linkability Strawman #2
// fixes.
func Strawman1Receive(ctx context.Context, p Params, ep network.Transport, from network.NodeID, tag string, keys []*elgamal.PrivateKey, table *elgamal.Table) (uint64, error) {
	data, err := ep.Recv(ctx, from, network.Tag(tag, "s1out"))
	if err != nil {
		return 0, err
	}
	bd, _, err := p.decodeBundle(data)
	if err != nil {
		return 0, err
	}
	var share uint64
	for b := 0; b < p.L; b++ {
		v, err := keys[b].Decrypt(elgamal.Ciphertext{C1: bd.C1, C2: bd.C2[b]}, table)
		if err != nil {
			return 0, err
		}
		if v&1 != 0 {
			share |= 1 << b
		}
	}
	return share, nil
}

// Strawman2Send splits the share into subshares like the final protocol but
// keeps one bundle per (sender, recipient) pair all the way through.
func Strawman2Send(_ context.Context, p Params, ep network.Transport, relay network.NodeID, tag string, selfIdx int, share uint64, keys RecipientKeys) error {
	if err := p.Validate(); err != nil {
		return err
	}
	subs := secretshare.SplitXOR(share, p.K+1, p.L)
	var payload []byte
	for m, sub := range subs {
		bits := secretshare.Bits(sub, p.L)
		msgs := make([]int64, p.L)
		for b, bit := range bits {
			msgs[b] = int64(bit)
		}
		cts, err := elgamal.EncryptMulti(keys[m], msgs)
		if err != nil {
			return err
		}
		bd := bundle{C1: cts[0].C1, C2: make([]group.Element, p.L)}
		for b, ct := range cts {
			bd.C2[b] = ct.C2
		}
		payload = append(payload, p.encodeBundle(bd)...)
	}
	if err := ep.Send(relay, network.Tag(tag, "s2", selfIdx), payload); err != nil {
		return err
	}
	return nil
}

// Strawman2Relay forwards all (K+1)² bundles without aggregation — the
// traffic blow-up the final protocol's homomorphic sum avoids.
func Strawman2Relay(ctx context.Context, p Params, ep network.Transport, senders []network.NodeID, peer network.NodeID, tag string) error {
	for idx, s := range senders {
		data, err := ep.Recv(ctx, s, network.Tag(tag, "s2", idx))
		if err != nil {
			return err
		}
		if err := ep.Send(peer, network.Tag(tag, "s2fwd", idx), data); err != nil {
			return err
		}
	}
	return nil
}

// Strawman2Adjust adjusts every bundle and routes bundle m of every sender
// to member m.
func Strawman2Adjust(ctx context.Context, p Params, ep network.Transport, relay network.NodeID, members []network.NodeID, neighborKey *big.Int, tag string) error {
	g := p.Group
	perMember := make([][]byte, len(members))
	for idx := range members {
		data, err := ep.Recv(ctx, relay, network.Tag(tag, "s2fwd", idx))
		if err != nil {
			return err
		}
		for m := 0; m <= p.K; m++ {
			bd, rest, err := p.decodeBundle(data)
			if err != nil {
				return fmt.Errorf("transfer: strawman2 adjust: %w", err)
			}
			data = rest
			bd.C1 = g.ScalarMul(bd.C1, neighborKey)
			perMember[m] = append(perMember[m], p.encodeBundle(bd)...)
		}
	}
	for m, member := range members {
		if err := ep.Send(member, network.Tag(tag, "s2out"), perMember[m]); err != nil {
			return err
		}
	}
	return nil
}

// Strawman2Receive decrypts the K+1 subshare bundles addressed to this
// member and XORs them into a fresh share.
func Strawman2Receive(ctx context.Context, p Params, ep network.Transport, from network.NodeID, tag string, keys []*elgamal.PrivateKey, table *elgamal.Table) (uint64, error) {
	data, err := ep.Recv(ctx, from, network.Tag(tag, "s2out"))
	if err != nil {
		return 0, err
	}
	var share uint64
	for s := 0; s <= p.K; s++ {
		bd, rest, err := p.decodeBundle(data)
		if err != nil {
			return 0, err
		}
		data = rest
		var sub uint64
		for b := 0; b < p.L; b++ {
			v, err := keys[b].Decrypt(elgamal.Ciphertext{C1: bd.C1, C2: bd.C2[b]}, table)
			if err != nil {
				return 0, err
			}
			if v&1 != 0 {
				sub |= 1 << b
			}
		}
		share ^= sub
	}
	return share, nil
}
