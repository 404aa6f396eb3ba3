package ot

import (
	"crypto/cipher"
	"sync"
)

// DealerBroker hands out the two halves of dealt random-OT streams for
// ordered party pairs. It plays the trusted party's role in the offline
// phase, mirroring the pairwise Substrate: each directed pair (sender i →
// receiver j) holds one master seed for the whole deployment, and every
// session derives its own independent stream from it with the same PRF the
// substrate uses (seed = AES_master(SHA-256(tag)[:16])). One broker
// therefore serves every session of a deployment — block, aggregation,
// noise — and stores nothing per session: each half is derived afresh on
// request, so a finished query leaves no state behind here. The two halves
// of a (pair, session) stream consume in lockstep as long as each is
// claimed once, by its one consumer.
//
// The broker is safe for concurrent use; parties typically claim their
// halves from separate goroutines during session setup.
type DealerBroker struct {
	mu      sync.Mutex
	masters map[[2]int][]byte
}

// NewDealerBroker creates an empty broker.
func NewDealerBroker() *DealerBroker {
	return &DealerBroker{masters: make(map[[2]int][]byte)}
}

// stream derives session tag's stream for directed pair (i → j), drawing
// the pair's master seed on first use: the stream NewDealerPair builds from
// deriveSeed(master, derivePoint(tag)).
func (b *DealerBroker) stream(i, j int, tag string) (cipher.Stream, error) {
	b.mu.Lock()
	master, ok := b.masters[[2]int{i, j}]
	if !ok {
		master = make([]byte, SeedLen)
		if err := readEntropy(master); err != nil {
			b.mu.Unlock()
			return nil, err
		}
		b.masters[[2]int{i, j}] = master
	}
	b.mu.Unlock()
	return newPRG(deriveSeed(master, derivePoint(tag))), nil
}

// Sender returns the sender half of session tag's stream for directed pair
// (i → j). It fails only when drawing the pair's master seed fails.
func (b *DealerBroker) Sender(i, j int, tag string) (*DealerSender, error) {
	g, err := b.stream(i, j, tag)
	if err != nil {
		return nil, err
	}
	return &DealerSender{g: g}, nil
}

// Receiver returns the receiver half of session tag's stream for directed
// pair (i → j).
func (b *DealerBroker) Receiver(i, j int, tag string) (*DealerReceiver, error) {
	g, err := b.stream(i, j, tag)
	if err != nil {
		return nil, err
	}
	return &DealerReceiver{g: g}, nil
}
