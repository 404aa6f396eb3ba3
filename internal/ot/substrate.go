package ot

import (
	"context"
	"crypto/aes"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"dstress/internal/group"
	"dstress/internal/network"
)

// Substrate is the pairwise OT bootstrap of a deployment: each ordered node
// pair performs exactly one IKNP base-OT handshake (λ seed pairs per
// direction), no matter how many GMW sessions — block, aggregation, noise —
// the pair co-occurs in. Every session then derives its own independent
// extension streams from the handshake material with a PRF over the session
// tag:
//
//	subseed = AES_seed(SHA-256(tag)[:16])
//
// Both ends hold the same base seeds for the branches they are entitled to,
// so they derive identical per-session subseeds; the branch a receiver is
// *not* entitled to stays unknown because deriving its subseed requires the
// missing base seed (AES under an unknown key). The sender-side correlation
// vector s is drawn once per pair and shared by all sessions, exactly as
// IKNP shares it across the extensions of one session.
//
// Lockstep stays per session: each derived stream is consumed by exactly
// one (session, direction) pair, whose GMW schedule already guarantees both
// ends walk it identically. Distinct sessions touch distinct streams, so a
// deployment's sessions can interleave freely.
//
// One Substrate belongs to one node (one transport endpoint) and one
// deployment. Handshakes run lazily on a pair's first session and are safe
// to trigger from many sessions concurrently.
type Substrate struct {
	g  group.Group
	ep network.Transport

	mu         sync.Mutex
	peers      map[network.NodeID]*pairBase
	handshakes atomic.Int64
}

// pairBase is the per-peer base-OT material.
type pairBase struct {
	mu   sync.Mutex // held while the handshake is in flight
	done bool
	// attempt versions the handshake tags so a retry after a failed (e.g.
	// context-canceled) attempt cannot misread messages a partial earlier
	// exchange left queued. Both ends must fail together for a retry to
	// pair up — the fail-stop deployments here restart whole fleets, so a
	// one-sided retry only blocks until its context cancels.
	attempt int

	// Extension-sender direction (this node sends pads to peer): the λ
	// correlation bits and the chosen seeds k_{s_j}.
	sPacked []byte
	sSeeds  [][]byte
	// Extension-receiver direction (peer sends pads to this node): both
	// seed branches (k0_j, k1_j).
	k0, k1 [][]byte
}

// NewSubstrate creates the pairwise substrate for one node of a deployment.
func NewSubstrate(g group.Group, ep network.Transport) *Substrate {
	return &Substrate{g: g, ep: ep, peers: make(map[network.NodeID]*pairBase)}
}

// Handshakes returns the number of completed pairwise base-OT handshakes on
// this node. Summed over a deployment's nodes this equals the number of
// ordered node pairs that share at least one session — independent of the
// number of block sessions, which is the point of the substrate.
func (s *Substrate) Handshakes() int64 { return s.handshakes.Load() }

// Warm performs (or joins) the base-OT handshake with peer without
// deriving a stream: a deployment's setup phase calls it for every peer a
// node will ever share a session with, so that later per-query session
// creation is purely local seed derivation. Both sides of a pair must call
// Warm concurrently (the handshake is symmetric). Idempotent.
func (s *Substrate) Warm(ctx context.Context, peer network.NodeID) error {
	_, err := s.pair(ctx, peer)
	return err
}

// pair returns (creating if needed) the per-peer entry with its handshake
// completed, blocking while another session's call performs it. A failed
// handshake is not cached: the next attach retries under fresh tags, so a
// transient failure does not poison the pair for the substrate's lifetime.
func (s *Substrate) pair(ctx context.Context, peer network.NodeID) (*pairBase, error) {
	s.mu.Lock()
	pb, ok := s.peers[peer]
	if !ok {
		pb = &pairBase{}
		s.peers[peer] = pb
	}
	s.mu.Unlock()

	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.done {
		return pb, nil
	}
	err := s.handshake(ctx, peer, pb)
	if err != nil {
		pb.attempt++
		return nil, err
	}
	pb.done = true
	s.handshakes.Add(1)
	return pb, nil
}

// handshake runs both base-OT directions with peer under the pair's fixed
// tag. Both nodes run the mirror image concurrently; the directions are
// independent message streams, so they interleave freely.
func (s *Substrate) handshake(ctx context.Context, peer network.NodeID, pb *pairBase) error {
	me := s.ep.ID()
	sendTag := network.Tag("otsub", me, peer, "base", pb.attempt)
	recvTag := network.Tag("otsub", peer, me, "base", pb.attempt)

	sPacked := make([]byte, Lambda/8)
	if err := readEntropy(sPacked); err != nil {
		return fmt.Errorf("ot: drawing substrate correlation vector: %w", err)
	}

	var wg sync.WaitGroup
	var sendErr, recvErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		// This node as extension sender = base-OT receiver.
		pb.sSeeds, sendErr = BaseOTReceive(ctx, s.g, s.ep, peer, sendTag, UnpackBits(sPacked, Lambda))
	}()
	go func() {
		defer wg.Done()
		// This node as extension receiver = base-OT sender.
		pb.k0, pb.k1, recvErr = BaseOTSend(ctx, s.g, s.ep, peer, recvTag, Lambda)
	}()
	wg.Wait()
	if sendErr != nil {
		return fmt.Errorf("ot: substrate handshake with %d: %w", peer, sendErr)
	}
	if recvErr != nil {
		return fmt.Errorf("ot: substrate handshake with %d: %w", peer, recvErr)
	}
	pb.sPacked = sPacked
	return nil
}

// SenderFor attaches a session to the substrate as the pad-producing side
// toward peer: the pair's one-time handshake runs if it hasn't yet, then
// the session gets its own PRF-derived extension stream under tag.
func (s *Substrate) SenderFor(ctx context.Context, peer network.NodeID, tag string) (*IKNPSender, error) {
	pb, err := s.pair(ctx, peer)
	if err != nil {
		return nil, err
	}
	point := derivePoint(tag)
	seeds := make([][]byte, Lambda)
	for j := range seeds {
		seeds[j] = deriveSeed(pb.sSeeds[j], point)
	}
	return newIKNPSenderFromSeeds(s.ep, peer, tag, pb.sPacked, seeds), nil
}

// ReceiverFor attaches a session to the substrate as the choice-consuming
// side toward peer, with its own PRF-derived extension stream under tag.
func (s *Substrate) ReceiverFor(ctx context.Context, peer network.NodeID, tag string) (*IKNPReceiver, error) {
	pb, err := s.pair(ctx, peer)
	if err != nil {
		return nil, err
	}
	point := derivePoint(tag)
	k0 := make([][]byte, Lambda)
	k1 := make([][]byte, Lambda)
	for j := range k0 {
		k0[j] = deriveSeed(pb.k0[j], point)
		k1[j] = deriveSeed(pb.k1[j], point)
	}
	return newIKNPReceiverFromSeeds(s.ep, peer, tag, k0, k1), nil
}

// derivePoint maps a session tag to the 16-byte PRF input point.
func derivePoint(tag string) [SeedLen]byte {
	h := sha256.Sum256([]byte(tag))
	var p [SeedLen]byte
	copy(p[:], h[:])
	return p
}

// deriveSeed evaluates the PRF AES_base at the tag point, yielding the
// session-specific seed shared by both ends that hold base.
func deriveSeed(base []byte, point [SeedLen]byte) []byte {
	blk, err := aes.NewCipher(base[:SeedLen])
	if err != nil {
		panic(err) //dstress:panic-ok — SeedLen is a valid AES key size, cannot fail
	}
	out := make([]byte, SeedLen)
	blk.Encrypt(out, point[:])
	return out
}
