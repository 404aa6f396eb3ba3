package ot

import (
	"context"
	"slices"
	"sync"
	"testing"

	"dstress/internal/network"
)

// substratePair stands up substrates for nodes 1 and 2 on a fresh hub.
func substratePair(t testing.TB) (*Substrate, *Substrate, *network.Network) {
	t.Helper()
	net := network.New()
	return NewSubstrate(tg, net.Endpoint(1)), NewSubstrate(tg, net.Endpoint(2)), net
}

// attach derives one session's random-OT stream pair over the substrates,
// running the (possibly shared) handshake underneath.
func attach(t testing.TB, s1, s2 *Substrate, tag string) (*IKNPSender, *IKNPReceiver) {
	t.Helper()
	var snd *IKNPSender
	var rcv *IKNPReceiver
	var se, re error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		snd, se = s1.SenderFor(context.Background(), 2, tag)
	}()
	go func() {
		defer wg.Done()
		rcv, re = s2.ReceiverFor(context.Background(), 1, tag)
	}()
	wg.Wait()
	if se != nil || re != nil {
		t.Fatalf("substrate attach errors: %v / %v", se, re)
	}
	return snd, rcv
}

func TestSubstrateOneHandshakePerPair(t *testing.T) {
	s1, s2, _ := substratePair(t)
	// Three sessions over the same pair: the base OT must run exactly once
	// per node, the sessions getting independent derived streams.
	for _, tag := range []string{"blk/0/ot/0/1", "blk/7/ot/0/1", "aggblk/ot/0/1"} {
		snd, rcv := attach(t, s1, s2, tag)
		checkRandomOTs(t, snd, rcv, 600)
	}
	if h := s1.Handshakes(); h != 1 {
		t.Errorf("node 1 ran %d handshakes for 3 sessions, want 1", h)
	}
	if h := s2.Handshakes(); h != 1 {
		t.Errorf("node 2 ran %d handshakes for 3 sessions, want 1", h)
	}
}

func TestSubstrateSessionsIndependent(t *testing.T) {
	// Distinct session tags must yield distinct pad streams (the PRF input
	// differs), or two sessions would leak each other's masks.
	s1, s2, _ := substratePair(t)
	pads := map[string][]uint64{}
	for _, tag := range []string{"sessA", "sessB"} {
		var snd *IKNPSender
		var rcv *IKNPReceiver
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			snd, _ = s1.SenderFor(context.Background(), 2, tag)
		}()
		go func() {
			defer wg.Done()
			rcv, _ = s2.ReceiverFor(context.Background(), 1, tag)
		}()
		wg.Wait()
		if snd == nil || rcv == nil {
			t.Fatal("attach failed")
		}
		var w0 []uint64
		wg.Add(2)
		go func() {
			defer wg.Done()
			w0, _, _ = snd.RandomPadWords(context.Background(), 256)
		}()
		go func() {
			defer wg.Done()
			_, _, _ = rcv.RandomChoiceWords(context.Background(), 256)
		}()
		wg.Wait()
		pads[tag] = w0
	}
	if equalWords(pads["sessA"], pads["sessB"]) {
		t.Error("two sessions derived identical pad streams from the substrate")
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSubstrateRandomOTCorrelation(t *testing.T) {
	s1, s2, _ := substratePair(t)
	snd, rcv := attach(t, s1, s2, "corr")
	checkRandomOTs(t, snd, rcv, 5000)
}

func TestSubstrateConcurrentAttach(t *testing.T) {
	// Many sessions racing to attach to the same pair must trigger exactly
	// one handshake and all come out usable.
	s1, s2, _ := substratePair(t)
	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		tag := network.Tag("race", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd, rcv := attach(t, s1, s2, tag)
			checkRandomOTs(t, snd, rcv, 64)
		}()
	}
	wg.Wait()
	if s1.Handshakes() != 1 || s2.Handshakes() != 1 {
		t.Errorf("handshakes = %d/%d, want 1/1", s1.Handshakes(), s2.Handshakes())
	}
}

func TestDealerBrokerPerSessionStreams(t *testing.T) {
	b := NewDealerBroker()
	sender := func(i, j int, tag string) *DealerSender {
		t.Helper()
		s, err := b.Sender(i, j, tag)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Same pair, same session: halves must correlate.
	s := sender(1, 2, "sess1")
	r, err := b.Receiver(1, 2, "sess1")
	if err != nil {
		t.Fatal(err)
	}
	checkRandomOTs(t, s, r, 2000)
	// Same pair, different session: an independent stream.
	s2 := sender(1, 2, "sess2")
	w1, _, _ := sender(1, 2, "sess1b").RandomPadWords(context.Background(), 512)
	w2, _, _ := s2.RandomPadWords(context.Background(), 512)
	if slices.Equal(w1, w2) {
		t.Error("distinct sessions drew identical dealt streams")
	}
	// Claiming the same half twice yields the same stream object (lockstep
	// stays with the session's single consumer).
	if sender(1, 2, "sess2") != s2 {
		t.Error("broker did not cache the session stream")
	}
}

func TestSubstrateHandshakeFailureNotCached(t *testing.T) {
	// A deployment-wide abort cancels every node's handshake together; the
	// next attach must retry under fresh attempt-versioned tags instead of
	// returning the cached failure forever, even though the aborted attempt
	// left partial base-OT messages queued on the old tags.
	s1, s2, _ := substratePair(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s1.SenderFor(canceled, 2, "early"); err == nil {
		t.Fatal("handshake with a canceled context succeeded")
	}
	if _, err := s2.ReceiverFor(canceled, 1, "early"); err == nil {
		t.Fatal("handshake with a canceled context succeeded")
	}
	if h := s1.Handshakes() + s2.Handshakes(); h != 0 {
		t.Fatalf("failed handshakes counted: %d", h)
	}
	snd, rcv := attach(t, s1, s2, "late")
	checkRandomOTs(t, snd, rcv, 64)
	if h := s1.Handshakes(); h != 1 {
		t.Errorf("handshakes after retry = %d, want 1", h)
	}
}
