package ot

import (
	"context"
)

// Dealer source: random OTs drawn from a shared AES-CTR stream that models
// correlated randomness distributed by the trusted party during the offline
// setup phase (§3.4 already assumes such a TP for block assignment; the TP
// "can be offline and never sees any private information" — correlated
// randomness is input-independent, so dealing it preserves that property).
//
// The online protocol is unchanged: chosen-message OTs still pay the
// three-bit Beaver derandomization traffic through the network layer, so
// traffic measurements remain faithful. Only the public-key bootstrap and
// the extension messages are elided, which makes large benchmark
// configurations (blocks of 20 over circuits with 10^5 AND gates)
// tractable on a single machine.
//
// Both halves derive the identical stream from the shared seed: per OT
// instance three bits (w0, w1, ρ); the receiver's pad is wρ = ρ ? w1 : w0.

// DealerSender is the pad-holding half of a dealt random-OT stream.
type DealerSender struct{ g *prg }

// DealerReceiver is the choice-holding half of a dealt random-OT stream.
type DealerReceiver struct{ g *prg }

// NewDealerPair creates the two linked halves from a seed. Both halves must
// consume OTs in the same order and quantity, which GMW guarantees because
// every party walks the same circuit.
func NewDealerPair(seed [SeedLen]byte) (*DealerSender, *DealerReceiver) {
	return &DealerSender{g: newPRG(seed[:])}, &DealerReceiver{g: newPRG(seed[:])}
}

// NewRandomDealerPair creates a dealer pair from a fresh random seed.
func NewRandomDealerPair() (*DealerSender, *DealerReceiver, error) {
	var seed [SeedLen]byte
	if err := readEntropy(seed[:]); err != nil {
		return nil, nil, err
	}
	s, r := NewDealerPair(seed)
	return s, r, nil
}

// dealerDraw returns the three packed bit vectors (w0, w1, rho) for n OTs.
func dealerDraw(g *prg, n int) (w0, w1, rho []byte) {
	nb := (n + 7) / 8
	buf := g.next(3 * nb)
	return buf[:nb], buf[nb : 2*nb], buf[2*nb:]
}

// RandomPadWords implements RandomOTSender.
func (d *DealerSender) RandomPadWords(_ context.Context, n int) ([]uint64, []uint64, error) {
	w0, w1, _ := dealerDraw(d.g, n)
	return BytesToWords(w0, n), BytesToWords(w1, n), nil
}

// RandomChoiceWords implements RandomOTReceiver.
func (d *DealerReceiver) RandomChoiceWords(_ context.Context, n int) ([]uint64, []uint64, error) {
	w0, w1, rho := dealerDraw(d.g, n)
	w := make([]byte, len(w0))
	for i := range w {
		// wρ = (w0 & ¬ρ) | (w1 & ρ), bitwise.
		w[i] = (w0[i] &^ rho[i]) | (w1[i] & rho[i])
	}
	return BytesToWords(rho, n), BytesToWords(w, n), nil
}
