package ot

import (
	"bytes"
	"context"
	"crypto/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dstress/internal/group"
	"dstress/internal/network"
)

var tg = group.ModP256()

func randBits(n int) []uint8 {
	b := make([]byte, (n+7)/8)
	if _, err := rand.Read(b); err != nil {
		panic(err)
	}
	return UnpackBits(b, n)
}

func TestPackUnpackBits(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		bits := randBits(n)
		got := UnpackBits(PackBits(bits), n)
		if !bytes.Equal(bits, got) {
			t.Errorf("n=%d: round trip failed", n)
		}
	}
}

func TestQuickPackBits(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw)
		bits := make([]uint8, n)
		for i, b := range raw {
			bits[i] = b & 1
		}
		return bytes.Equal(UnpackBits(PackBits(bits), n), bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseOT(t *testing.T) {
	net := network.New()
	const count = 16
	choices := randBits(count)
	var k0, k1, ks [][]byte
	var sendErr, recvErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		k0, k1, sendErr = BaseOTSend(context.Background(), tg, net.Endpoint(1), 2, "bot", count)
	}()
	go func() {
		defer wg.Done()
		ks, recvErr = BaseOTReceive(context.Background(), tg, net.Endpoint(2), 1, "bot", choices)
	}()
	wg.Wait()
	if sendErr != nil || recvErr != nil {
		t.Fatalf("errors: %v / %v", sendErr, recvErr)
	}
	for j := 0; j < count; j++ {
		want := k0[j]
		other := k1[j]
		if choices[j] == 1 {
			want, other = other, want
		}
		if !bytes.Equal(ks[j], want) {
			t.Errorf("instance %d: receiver seed does not match chosen branch", j)
		}
		if bytes.Equal(ks[j], other) {
			t.Errorf("instance %d: receiver seed equals unchosen branch", j)
		}
		if bytes.Equal(k0[j], k1[j]) {
			t.Errorf("instance %d: both seeds identical", j)
		}
	}
}

// iknpPair builds a connected extension sender/receiver pair on net, node 1
// toward node 2, bootstrapped the one way a deployment does it: each end's
// pairwise substrate runs the base-OT handshake and derives the stream.
func iknpPair(t testing.TB, net *network.Network) (*IKNPSender, *IKNPReceiver) {
	t.Helper()
	var s *IKNPSender
	var r *IKNPReceiver
	var se, re error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s, se = NewSubstrate(tg, net.Endpoint(1)).SenderFor(context.Background(), 2, "iknp")
	}()
	go func() {
		defer wg.Done()
		r, re = NewSubstrate(tg, net.Endpoint(2)).ReceiverFor(context.Background(), 1, "iknp")
	}()
	wg.Wait()
	if se != nil || re != nil {
		t.Fatalf("setup errors: %v / %v", se, re)
	}
	return s, r
}

// setupIKNP builds a connected sender/receiver pair over a fresh network.
func setupIKNP(t testing.TB) (*IKNPSender, *IKNPReceiver, *network.Network) {
	t.Helper()
	net := network.New()
	s, r := iknpPair(t, net)
	return s, r, net
}

// The tests' unpacked view of the packed data plane: one 0/1 byte per bit.
func packWords(bits []uint8) []uint64 { return BytesToWords(PackBits(bits), len(bits)) }

func unpackWords(w []uint64, n int) []uint8 { return UnpackBits(WordsToBytes(w, n), n) }

func sendBits(bs *BitSender, m0, m1 []uint8) error {
	return bs.SendPacked(context.Background(), packWords(m0), packWords(m1), len(m0))
}

func receiveBits(br *BitReceiver, choices []uint8) ([]uint8, error) {
	out, err := br.ReceivePacked(context.Background(), packWords(choices), len(choices))
	return unpackWords(out, len(choices)), err
}

// checkRandomOTs validates the random-OT correlation on n instances.
func checkRandomOTs(t *testing.T, s RandomOTSender, r RandomOTReceiver, n int) {
	t.Helper()
	var w0, w1, rho, wr []uint64
	var es, er error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w0, w1, es = s.RandomPadWords(context.Background(), n)
	}()
	go func() {
		defer wg.Done()
		rho, wr, er = r.RandomChoiceWords(context.Background(), n)
	}()
	wg.Wait()
	if es != nil || er != nil {
		t.Fatalf("errors: %v / %v", es, er)
	}
	w0b, w1b, rhoB, wrB := unpackWords(w0, n), unpackWords(w1, n), unpackWords(rho, n), unpackWords(wr, n)
	ones, rhoOnes := 0, 0
	for i := 0; i < n; i++ {
		want := w0b[i]
		if rhoB[i] == 1 {
			want = w1b[i]
		}
		if wrB[i] != want {
			t.Fatalf("instance %d: receiver pad mismatch", i)
		}
		ones += int(w0b[i])
		rhoOnes += int(rhoB[i])
	}
	if n >= 1000 {
		// Pads and choices should be roughly balanced.
		if frac := float64(ones) / float64(n); frac < 0.4 || frac > 0.6 {
			t.Errorf("w0 ones fraction %.3f; pads biased", frac)
		}
		if frac := float64(rhoOnes) / float64(n); frac < 0.4 || frac > 0.6 {
			t.Errorf("rho ones fraction %.3f; choices biased", frac)
		}
	}
}

func TestIKNPRandomOTs(t *testing.T) {
	s, r, _ := setupIKNP(t)
	checkRandomOTs(t, s, r, 5000)
}

func TestIKNPMultipleBatches(t *testing.T) {
	// Several small batches must stay synchronized across chunk boundaries.
	s, r, _ := setupIKNP(t)
	for _, n := range []int{3, 100, 2048, 1, 4000} {
		checkRandomOTs(t, s, r, n)
	}
}

func mustDealerPair(tb testing.TB) (*DealerSender, *DealerReceiver) {
	tb.Helper()
	s, r, err := NewRandomDealerPair()
	if err != nil {
		tb.Fatal(err)
	}
	return s, r
}

func TestDealerRandomOTs(t *testing.T) {
	ds, dr := mustDealerPair(t)
	checkRandomOTs(t, ds, dr, 5000)
}

func TestDealerDeterministicFromSeed(t *testing.T) {
	var seed [SeedLen]byte
	seed[0] = 42
	s1, _ := NewDealerPair(seed)
	s2, _ := NewDealerPair(seed)
	a0, a1, _ := s1.RandomPadWords(context.Background(), 64)
	b0, b1, _ := s2.RandomPadWords(context.Background(), 64)
	if !slices.Equal(a0, b0) || !slices.Equal(a1, b1) {
		t.Error("dealer pads not deterministic in seed")
	}
}

// checkChosenOT runs the full chosen-message OT stack over a source pair.
func checkChosenOT(t *testing.T, mkPair func(net *network.Network) (RandomOTSender, RandomOTReceiver)) {
	t.Helper()
	net := network.New()
	src, rcv := mkPair(net)
	bs := NewBitSender(src, net.Endpoint(1), 2, "chosen")
	br := NewBitReceiver(rcv, net.Endpoint(2), 1, "chosen")

	const n = 3000
	m0 := randBits(n)
	m1 := randBits(n)
	choices := randBits(n)

	var got []uint8
	var se, re error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		se = sendBits(bs, m0, m1)
	}()
	go func() {
		defer wg.Done()
		got, re = receiveBits(br, choices)
	}()
	wg.Wait()
	if se != nil || re != nil {
		t.Fatalf("errors: %v / %v", se, re)
	}
	for i := 0; i < n; i++ {
		want := m0[i]
		if choices[i] == 1 {
			want = m1[i]
		}
		if got[i] != want {
			t.Fatalf("OT %d: got %d, want %d", i, got[i], want)
		}
	}
}

func TestChosenOTOverDealer(t *testing.T) {
	checkChosenOT(t, func(net *network.Network) (RandomOTSender, RandomOTReceiver) {
		s, r := mustDealerPair(t)
		return s, r
	})
}

func TestChosenOTOverIKNP(t *testing.T) {
	checkChosenOT(t, func(net *network.Network) (RandomOTSender, RandomOTReceiver) {
		return iknpPair(t, net)
	})
}

func TestChosenOTSequentialBatches(t *testing.T) {
	net := network.New()
	ds, dr := mustDealerPair(t)
	bs := NewBitSender(ds, net.Endpoint(1), 2, "seq")
	br := NewBitReceiver(dr, net.Endpoint(2), 1, "seq")
	for round := 0; round < 5; round++ {
		n := 17 * (round + 1)
		m0, m1, c := randBits(n), randBits(n), randBits(n)
		var got []uint8
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := sendBits(bs, m0, m1); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			var err error
			got, err = receiveBits(br, c)
			if err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		for i := 0; i < n; i++ {
			want := m0[i]
			if c[i] == 1 {
				want = m1[i]
			}
			if got[i] != want {
				t.Fatalf("round %d OT %d mismatch", round, i)
			}
		}
	}
}

func TestIKNPTrafficPerOT(t *testing.T) {
	// IKNP's extension cost is Lambda bits = 16 bytes per OT; check the
	// measured traffic is in that ballpark (amortized over a chunk).
	s, r, net := setupIKNP(t)
	net.ResetStats()
	checkRandomOTs(t, s, r, extChunk)
	total := net.TotalBytes()
	perOT := float64(total) / float64(extChunk)
	if perOT < 14 || perOT > 24 {
		t.Errorf("IKNP extension traffic %.1f bytes/OT, expected ~16", perOT)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	const m = 256
	cols := make([][]byte, Lambda)
	for j := range cols {
		cols[j] = make([]byte, m/8)
		if _, err := rand.Read(cols[j]); err != nil {
			t.Fatal(err)
		}
	}
	rows := transposePacked(cols, m)
	for j := 0; j < Lambda; j++ {
		for i := 0; i < m; i++ {
			cb := (cols[j][i/8] >> (i % 8)) & 1
			rb := (rows[i*(Lambda/8)+j/8] >> (j % 8)) & 1
			if cb != rb {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func BenchmarkIKNPRandomOTs(b *testing.B) {
	s, r, _ := setupIKNP(b)
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.RandomPadWords(context.Background(), 1024); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, _, err := r.RandomChoiceWords(context.Background(), 1024); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	b.SetBytes(1024 / 8)
}

func BenchmarkDealerRandomOTs(b *testing.B) {
	s, r := mustDealerPair(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := s.RandomPadWords(context.Background(), 1024); err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.RandomChoiceWords(context.Background(), 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPackedValidation(t *testing.T) {
	ds, dr := mustDealerPair(t)
	net := network.New()
	bs := NewBitSender(ds, net.Endpoint(1), 2, "pv")
	br := NewBitReceiver(dr, net.Endpoint(2), 1, "pv")
	// Short word vectors must error, not panic (65 bits need 2 words).
	short := make([]uint64, 1)
	if err := bs.SendPacked(context.Background(), short, short, 65); err == nil {
		t.Error("short message vectors accepted")
	}
	if _, err := br.ReceivePacked(context.Background(), short, 65); err == nil {
		t.Error("short choice vector accepted")
	}
	// Zero-length calls are no-ops.
	if err := bs.SendPacked(context.Background(), nil, nil, 0); err != nil {
		t.Errorf("empty SendPacked: %v", err)
	}
	if out, err := br.ReceivePacked(context.Background(), nil, 0); err != nil || out != nil {
		t.Errorf("empty ReceivePacked: %v %v", out, err)
	}
}
