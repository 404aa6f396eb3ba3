// Package ot implements oblivious transfer, the interaction primitive
// behind GMW's AND gates.
//
// In GMW, evaluating an AND gate over XOR-shared bits requires each ordered
// pair of parties (i, j) to run one 1-of-2 bit OT: party i (the sender)
// inputs two bits derived from its share, party j (the receiver) selects one
// of them with its own share without revealing which, and learns nothing
// about the other. The paper's prototype uses the GMW implementation of
// Choi et al. with the oblivious-transfer extensions of Ishai et al. as an
// optimization (§5.3); this package provides the same stack:
//
//   - baseot.go: a Diffie–Hellman random OT (Bellare–Micali style, secure
//     against honest-but-curious parties, matching §3.2's threat model) used
//     to bootstrap 128 seed OTs per party pair;
//   - iknp.go: the IKNP OT extension, which stretches those seeds into an
//     effectively unlimited stream of random bit-OTs using only AES and
//     bit-matrix transposition;
//   - substrate.go: the pairwise substrate — one base-OT handshake per
//     ordered node pair per deployment, with independent per-session
//     extension streams derived by a PRF over the session tag, so a node
//     pair co-occurring in many block sessions pays the public-key
//     bootstrap once;
//   - dealer.go: a trusted-dealer source that draws the same correlated
//     randomness locally. DStress already assumes a trusted party for setup
//     (§3.4, assumption 5); the dealer models a TP-supplied offline phase
//     and lets large benchmark configurations skip the public-key
//     bootstrap. The online derandomization traffic is identical.
//
// Both sources produce *random* OTs — the sender gets random pads (w0, w1),
// the receiver a random choice ρ and wρ — which the standard Beaver
// derandomization (this file) converts into chosen-message, chosen-choice
// OTs at a cost of three bits of online communication per OT.
//
// The data plane is packed end to end: pads, choices, and messages travel
// as []uint64 bitmaps (see bitmap.go) and the derandomization algebra runs
// word-wise. There are no unpacked entry points.
package ot

import (
	"context"
	"fmt"

	"dstress/internal/network"
	"dstress/internal/obs"
)

// RandomOTSender produces batches of random OTs for one direction of one
// party pair. Implementations: *IKNPSender/*DealerSender.
type RandomOTSender interface {
	// RandomPadWords returns n pairs of random pad bits (w0, w1) packed
	// into 64-bit words with zeroed tails.
	RandomPadWords(ctx context.Context, n int) (w0, w1 []uint64, err error)
}

// RandomOTReceiver is the receiving half of a random OT source.
type RandomOTReceiver interface {
	// RandomChoiceWords returns n random choice bits ρ and the
	// corresponding pads wρ packed into 64-bit words with zeroed tails.
	RandomChoiceWords(ctx context.Context, n int) (rho, wRho []uint64, err error)
}

// ---------------------------------------------------------------------------
// Chosen-message bit OT via Beaver derandomization
// ---------------------------------------------------------------------------

// BitSender executes chosen-message bit OTs as the sender.
type BitSender struct {
	src  RandomOTSender
	ep   network.Transport
	peer network.NodeID
	tag  string
	seq  int
}

// BitReceiver executes chosen-message bit OTs as the receiver.
type BitReceiver struct {
	src  RandomOTReceiver
	ep   network.Transport
	peer network.NodeID
	tag  string
	seq  int
}

// NewBitSender wraps a random-OT source into a chosen-message sender
// speaking to peer under the tag namespace.
func NewBitSender(src RandomOTSender, ep network.Transport, peer network.NodeID, tag string) *BitSender {
	return &BitSender{src: src, ep: ep, peer: peer, tag: tag}
}

// NewBitReceiver wraps a random-OT source into a chosen-message receiver.
func NewBitReceiver(src RandomOTReceiver, ep network.Transport, peer network.NodeID, tag string) *BitReceiver {
	return &BitReceiver{src: src, ep: ep, peer: peer, tag: tag}
}

// SendPacked runs n parallel OTs with the messages packed into words: the
// receiver obtains bit i of m0 or of m1 according to its i-th choice.
// Tail bits of m0/m1 beyond n are ignored.
func (s *BitSender) SendPacked(ctx context.Context, m0, m1 []uint64, n int) error {
	if n == 0 {
		return nil
	}
	if len(m0) < Words(n) || len(m1) < Words(n) {
		return fmt.Errorf("ot: message vectors have %d/%d words, want %d for %d OTs",
			len(m0), len(m1), Words(n), n)
	}
	w0, w1, err := s.src.RandomPadWords(ctx, n)
	if err != nil {
		return err
	}
	// One derandomization batch per SendPacked: the sender side counts the
	// batch so sim runs (both directions in-process) don't double-count.
	obs.Add(ctx, "ot/derand_batches", 1)
	obs.Add(ctx, "ot/derand_bits", int64(n))
	tag := network.Tag(s.tag, "derand", s.seq)
	s.seq++
	// Receiver announces e = c ⊕ ρ.
	ePacked, err := s.ep.Recv(ctx, s.peer, tag)
	if err != nil {
		return err
	}
	if len(ePacked) != (n+7)/8 {
		return fmt.Errorf("ot: bad choice-mask length %d for %d OTs", len(ePacked), n)
	}
	e := BytesToWords(ePacked, n)
	// y0 = m0 ⊕ w_e, y1 = m1 ⊕ w_{1-e}: with d = e ∧ (w0⊕w1), the swap
	// becomes w_e = w0⊕d and w_{1-e} = w1⊕d, word-wise.
	nW := Words(n)
	y0 := make([]uint64, nW)
	y1 := make([]uint64, nW)
	for i := 0; i < nW; i++ {
		d := e[i] & (w0[i] ^ w1[i])
		y0[i] = m0[i] ^ w0[i] ^ d
		y1[i] = m1[i] ^ w1[i] ^ d
	}
	payload := append(WordsToBytes(y0, n), WordsToBytes(y1, n)...)
	return s.ep.Send(s.peer, tag, payload)
}

// ReceivePacked runs n parallel OTs with packed choice words and returns
// the selected bits packed (tail zeroed). Tail bits of choices beyond n are
// ignored.
func (r *BitReceiver) ReceivePacked(ctx context.Context, choices []uint64, n int) ([]uint64, error) {
	if n == 0 {
		return nil, nil
	}
	if len(choices) < Words(n) {
		return nil, fmt.Errorf("ot: choice vector has %d words, want %d for %d OTs",
			len(choices), Words(n), n)
	}
	rho, w, err := r.src.RandomChoiceWords(ctx, n)
	if err != nil {
		return nil, err
	}
	nW := Words(n)
	e := make([]uint64, nW)
	for i := 0; i < nW; i++ {
		e[i] = choices[i] ^ rho[i]
	}
	MaskTail(e, n)
	tag := network.Tag(r.tag, "derand", r.seq)
	r.seq++
	if err := r.ep.Send(r.peer, tag, WordsToBytes(e, n)); err != nil {
		return nil, err
	}
	payload, err := r.ep.Recv(ctx, r.peer, tag)
	if err != nil {
		return nil, err
	}
	nb := (n + 7) / 8
	if len(payload) != 2*nb {
		return nil, fmt.Errorf("ot: bad derandomization payload length %d", len(payload))
	}
	y0 := BytesToWords(payload[:nb], n)
	y1 := BytesToWords(payload[nb:], n)
	out := make([]uint64, nW)
	for i := 0; i < nW; i++ {
		out[i] = y0[i] ^ (choices[i] & (y0[i] ^ y1[i])) ^ w[i]
	}
	MaskTail(out, n)
	return out, nil
}

// ---------------------------------------------------------------------------
// Bit packing helpers
// ---------------------------------------------------------------------------

// PackBits packs a slice of 0/1 bytes into a bitmap, LSB-first within each
// byte.
func PackBits(bits []uint8) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b&1 == 1 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// UnpackBits expands a bitmap into n 0/1 bytes.
func UnpackBits(packed []byte, n int) []uint8 {
	out := make([]uint8, n)
	for i := 0; i < n; i++ {
		out[i] = (packed[i/8] >> (i % 8)) & 1
	}
	return out
}
