package ot

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dstress/internal/network"
)

// failingReader fails after serving `allow` bytes — the injection point for
// the entropy-failure paths that used to panic.
type failingReader struct {
	allow int
	err   error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.allow <= 0 {
		return 0, f.err
	}
	n := min(len(p), f.allow)
	for i := 0; i < n; i++ {
		p[i] = 0xA5
	}
	f.allow -= n
	return n, nil
}

// withFailingEntropy swaps the package entropy source for the test's
// lifetime.
func withFailingEntropy(t *testing.T, allow int) error {
	t.Helper()
	injected := errors.New("injected entropy failure")
	old := entropy
	entropy = &failingReader{allow: allow, err: injected}
	t.Cleanup(func() { entropy = old })
	return injected
}

func TestRandomWordsEntropyFailure(t *testing.T) {
	injected := withFailingEntropy(t, 0)
	if _, err := RandomWords(128); !errors.Is(err, injected) {
		t.Fatalf("RandomWords: got %v, want the injected failure", err)
	}
}

func TestDealerPairEntropyFailure(t *testing.T) {
	injected := withFailingEntropy(t, 0)
	if _, _, err := NewRandomDealerPair(); !errors.Is(err, injected) {
		t.Fatalf("NewRandomDealerPair: got %v, want the injected failure", err)
	}
}

func TestBrokerEntropyFailure(t *testing.T) {
	injected := withFailingEntropy(t, 0)
	b := NewDealerBroker()
	if _, err := b.Sender(1, 2, "sess"); !errors.Is(err, injected) {
		t.Fatalf("broker Sender: got %v, want the injected failure", err)
	}
	if _, err := b.Receiver(1, 2, "sess"); !errors.Is(err, injected) {
		t.Fatalf("broker Receiver: got %v, want the injected failure", err)
	}
}

func TestIKNPExtendEntropyFailure(t *testing.T) {
	// Build the extension pair from fixed seeds (no handshake, no network
	// randomness), then make the entropy source fail: the receiver's ρ draw
	// in extend must surface as an error from RandomChoiceWords, threaded
	// up instead of panicking mid-protocol.
	seeds0 := make([][]byte, Lambda)
	seeds1 := make([][]byte, Lambda)
	chosen := make([][]byte, Lambda)
	sPacked := make([]byte, Lambda/8)
	for j := 0; j < Lambda; j++ {
		k0 := make([]byte, SeedLen)
		k1 := make([]byte, SeedLen)
		k0[0], k1[0] = byte(j), byte(j)+1
		k1[1] = 1
		seeds0[j], seeds1[j] = k0, k1
		chosen[j] = k0 // s_j = 0 for all j
	}
	net := network.New()
	r := newIKNPReceiverFromSeeds(net.Endpoint(2), 1, "ext", seeds0, seeds1)
	_ = newIKNPSenderFromSeeds(net.Endpoint(1), 2, "ext", sPacked, chosen)

	injected := withFailingEntropy(t, 0)
	if _, _, err := r.RandomChoiceWords(context.Background(), 64); !errors.Is(err, injected) {
		t.Fatalf("RandomChoiceWords: got %v, want the injected failure", err)
	}
	if _, _, err := r.RandomChoiceWords(context.Background(), 64); !errors.Is(err, injected) {
		t.Fatalf("RandomChoiceWords: got %v, want the injected failure", err)
	}
}

func TestSubstrateHandshakeEntropyFailure(t *testing.T) {
	s1, _, _ := substratePair(t)
	injected := withFailingEntropy(t, 0)
	_, err := s1.SenderFor(context.Background(), 2, "q/1/blk/0")
	if !errors.Is(err, injected) {
		t.Fatalf("SenderFor: got %v, want the injected failure", err)
	}
	if !strings.Contains(err.Error(), "correlation vector") {
		t.Errorf("error %q does not name the failed draw", err)
	}
}
