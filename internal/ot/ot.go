// Package ot implements oblivious transfer, the interaction primitive
// behind GMW's AND gates.
//
// In GMW, evaluating an AND gate over XOR-shared bits needs one cross term
// xᵢyⱼ per ordered pair of parties (i, j), shared between the two without
// either learning the other's bit. The paper's prototype uses the GMW
// implementation of Choi et al. with the oblivious-transfer extensions of
// Ishai et al. as an optimization (§5.3); this package provides the same
// stack:
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
//     bootstrap. The online GMW traffic is identical.
//
// Both sources produce *random* OTs — the sender gets random pads (w0, w1),
// the receiver a random choice ρ and wρ — as packed []uint64 bitmaps (see
// bitmap.go). That correlation, w0 ⊕ wρ = ρ·(w0 ⊕ w1), is a one-bit Beaver
// product, and all GMW needs: the gmw package multiplies on it directly.
package ot

import (
	"context"
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
