package ot

import (
	"sync"

	"dstress/internal/network"
)

// DealerBroker hands out the two halves of dealt random-OT streams for
// ordered party pairs. It plays the trusted party's role in the offline
// phase, mirroring the pairwise Substrate: each directed pair (sender i →
// receiver j) holds one master seed for the whole deployment, and every
// session derives its own independent stream from it with the same PRF the
// substrate uses (seed = AES_master(SHA-256(tag)[:16])). One broker
// therefore serves every session of a deployment — block, aggregation,
// noise — with both halves of each (pair, session) stream consuming in
// lockstep within that session only.
//
// The broker is safe for concurrent use; parties typically claim their
// halves from separate goroutines during session setup.
type DealerBroker struct {
	mu      sync.Mutex
	masters map[[2]int][]byte
	streams map[brokerKey]*brokerEntry
}

type brokerKey struct {
	i, j int
	tag  string
}

type brokerEntry struct {
	s *DealerSender
	r *DealerReceiver
}

// NewDealerBroker creates an empty broker.
func NewDealerBroker() *DealerBroker {
	return &DealerBroker{
		masters: make(map[[2]int][]byte),
		streams: make(map[brokerKey]*brokerEntry),
	}
}

func (b *DealerBroker) entry(i, j int, tag string) (*brokerEntry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := brokerKey{i, j, tag}
	e, ok := b.streams[k]
	if !ok {
		pk := [2]int{i, j}
		master, ok := b.masters[pk]
		if !ok {
			master = make([]byte, SeedLen)
			if err := readEntropy(master); err != nil {
				return nil, err
			}
			b.masters[pk] = master
		}
		var seed [SeedLen]byte
		copy(seed[:], deriveSeed(master, derivePoint(tag)))
		s, r := NewDealerPair(seed)
		e = &brokerEntry{s: s, r: r}
		b.streams[k] = e
	}
	return e, nil
}

// Sender returns the sender half of session tag's stream for directed pair
// (i → j). It fails only when drawing the pair's master seed fails.
func (b *DealerBroker) Sender(i, j int, tag string) (*DealerSender, error) {
	e, err := b.entry(i, j, tag)
	if err != nil {
		return nil, err
	}
	return e.s, nil
}

// Receiver returns the receiver half of session tag's stream for directed
// pair (i → j).
func (b *DealerBroker) Receiver(i, j int, tag string) (*DealerReceiver, error) {
	e, err := b.entry(i, j, tag)
	if err != nil {
		return nil, err
	}
	return e.r, nil
}

// RetireTagPrefix drops every derived stream whose session tag equals
// prefix or lives under it at a "/" component boundary. A standing
// deployment calls this when a query finishes: the per-pair master seeds
// stay (new queries derive fresh streams from them), but the finished
// query's stream entries stop accumulating — without this the broker grows
// one entry per (pair, session) for every query ever served.
func (b *DealerBroker) RetireTagPrefix(prefix string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range b.streams {
		if network.TagUnder(k.tag, prefix) {
			delete(b.streams, k)
		}
	}
}
