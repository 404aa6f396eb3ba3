package ot

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	mrand "math/rand"
	"runtime/debug"
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

func TestQuotientPowMatchesDivision(t *testing.T) {
	// The sender's k1 element must be exactly (B/A)^a, the group element
	// the protocol defines, on every group a deployment can select.
	for _, g := range []group.Group{group.ModP256(), group.P256(), group.P384()} {
		for i := 0; i < 8; i++ {
			a := group.MustRandomScalar(g)
			B := g.ScalarBaseMul(group.MustRandomScalar(g))
			if i == 0 {
				B = g.ScalarBaseMul(a) // B = A: the quotient is the identity
			}
			want := g.ScalarMul(g.Op(B, g.Inv(g.ScalarBaseMul(a))), a)
			if got := quotientPow(g, g.ScalarMul(B, a), a); !g.Equal(got, want) {
				t.Errorf("%s: B^a·g^(−a²) ≠ (B/A)^a", g.Name())
			}
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

func unpackWords(w []uint64, n int) []uint8 { return UnpackBits(wordsToBytes(w, n), n) }

// checkRandomOTs validates the random-OT correlation on n instances. It
// reports with t.Errorf and returns, so concurrent tests may call it off
// the test goroutine.
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
		t.Errorf("errors: %v / %v", es, er)
		return
	}
	w0b, w1b, rhoB, wrB := unpackWords(w0, n), unpackWords(w1, n), unpackWords(rho, n), unpackWords(wr, n)
	ones, rhoOnes := 0, 0
	for i := 0; i < n; i++ {
		want := w0b[i]
		if rhoB[i] == 1 {
			want = w1b[i]
		}
		if wrB[i] != want {
			t.Errorf("instance %d: receiver pad mismatch", i)
			return
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
	var seed [SeedLen]byte
	if _, err := rand.Read(seed[:]); err != nil {
		tb.Fatal(err)
	}
	return NewDealerPair(seed)
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

func TestIKNPTrafficPerOT(t *testing.T) {
	// IKNP's extension cost is Lambda bits = 16 bytes per OT; check the
	// measured traffic is in that ballpark (amortized over one batch).
	const batch = 2048
	s, r, net := setupIKNP(t)
	before := net.TotalBytes()
	checkRandomOTs(t, s, r, batch)
	total := net.TotalBytes() - before
	perOT := float64(total) / float64(batch)
	if perOT < 14 || perOT > 24 {
		t.Errorf("IKNP extension traffic %.1f bytes/OT, expected ~16", perOT)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	const m = 256
	cols := make([]byte, Lambda*m/8)
	if _, err := rand.Read(cols); err != nil {
		t.Fatal(err)
	}
	rows := make([]byte, stripBytes)
	for b := 0; b < m/64; b++ {
		transposePacked(rows, cols, m/8, b)
		for j := 0; j < Lambda; j++ {
			for i := 64 * b; i < 64*(b+1); i++ {
				cb := (cols[j*m/8+i/8] >> (i % 8)) & 1
				rb := (rows[(i-64*b)*rowBytes+j/8] >> (j % 8)) & 1
				if cb != rb {
					t.Fatalf("transpose mismatch at (%d,%d)", i, j)
				}
			}
		}
	}
}

// crhBit is the per-row hash the IKNP stream used before crhStrip, kept as
// its oracle: one 16-byte row and its OT index hash to one pad bit,
// lsb(AES_k(x) ⊕ x) for x = row ⊕ idx.
func crhBit(crh cipher.Block, idx uint64, row []byte) uint8 {
	var buf [16]byte
	copy(buf[:], row)
	var ib [8]byte
	binary.LittleEndian.PutUint64(ib[:], idx)
	for i := 0; i < 8; i++ {
		buf[i] ^= ib[i]
	}
	var out [16]byte
	crh.Encrypt(out[:], buf[:])
	return (out[0] ^ buf[0]) & 1
}

func TestCRHStripMatchesPerRowHash(t *testing.T) {
	// The batched hash must give every row the per-row oracle's bit, for
	// the plain rows (w0, wρ) and the rows masked by s (w1), at counters
	// whose strip crosses 2^32.
	crh := newCRH()
	rng := mrand.New(mrand.NewSource(5))
	s := make([]byte, rowBytes)
	rng.Read(s)
	out := make([]byte, aes.BlockSize)
	for _, ctr := range []uint64{0, 1<<32 - 1, 1<<32 - 40, 1 << 32, 5<<32 - 63, rng.Uint64()} {
		rows := make([]byte, stripBytes)
		rng.Read(rows)
		orig := slices.Clone(rows)
		h0, h1 := crhStrip(crh, out, rows, ctr, s)
		plain, _ := crhStrip(crh, out, slices.Clone(orig), ctr, nil)
		for i := 0; i < 64; i++ {
			row := orig[i*rowBytes : (i+1)*rowBytes]
			masked := make([]byte, rowBytes)
			for k := range masked {
				masked[k] = row[k] ^ s[k]
			}
			want0 := uint64(crhBit(crh, ctr+uint64(i), row))
			want1 := uint64(crhBit(crh, ctr+uint64(i), masked))
			if (h0>>i)&1 != want0 || (plain>>i)&1 != want0 || (h1>>i)&1 != want1 {
				t.Fatalf("ctr %#x row %d: batched hash differs from the per-row oracle", ctr, i)
			}
		}
	}
}

// streamReader reads an AES-CTR stream: a deterministic entropy source, so
// two IKNP pairs built from the same seeds draw the same choice bits.
type streamReader struct{ s cipher.Stream }

func (r streamReader) Read(p []byte) (int, error) {
	clear(p)
	r.s.XORKeyStream(p, p)
	return len(p), nil
}

// withEntropy swaps the package entropy source for r until the test ends.
func withEntropy(t testing.TB, r io.Reader) {
	t.Helper()
	old := entropy
	entropy = r
	t.Cleanup(func() { entropy = old })
}

// fixedIKNPPair builds an extension pair on net, node 1 toward node 2,
// from fixed base material (no handshake): seed pair j is (k0_j, k1_j)
// with k0_j[0] = j, k1_j[0] = j+1, k1_j[1] = 1, and s_j follows the bits
// of 0x5a5a….
func fixedIKNPPair(net *network.Network) (*IKNPSender, *IKNPReceiver) {
	k0 := make([][]byte, Lambda)
	k1 := make([][]byte, Lambda)
	chosen := make([][]byte, Lambda)
	sPacked := bytes.Repeat([]byte{0x5a}, rowBytes)
	for j := 0; j < Lambda; j++ {
		k0[j], k1[j] = make([]byte, SeedLen), make([]byte, SeedLen)
		k0[j][0], k1[j][0], k1[j][1] = byte(j), byte(j)+1, 1
		chosen[j] = k0[j]
		if (sPacked[j/8]>>(j%8))&1 == 1 {
			chosen[j] = k1[j]
		}
	}
	return newIKNPSenderFromSeeds(net.Endpoint(1), 2, "fixed", sPacked, chosen),
		newIKNPReceiverFromSeeds(net.Endpoint(2), 1, "fixed", k0, k1)
}

// drawAll makes each draw of sizes on both ends of a pair, receiver first
// (its blob is queued on the hub, so the sender's draw never waits), and
// returns the four outputs concatenated as 0/1 bytes: w0, w1, ρ, wρ.
func drawAll(tb testing.TB, s *IKNPSender, r *IKNPReceiver, sizes []int) [4][]uint8 {
	tb.Helper()
	var out [4][]uint8
	for _, n := range sizes {
		rho, wr, err := r.RandomChoiceWords(context.Background(), n)
		if err != nil {
			tb.Fatal(err)
		}
		w0, w1, err := s.RandomPadWords(context.Background(), n)
		if err != nil {
			tb.Fatal(err)
		}
		for k, v := range [][]uint64{w0, w1, rho, wr} {
			if len(v) != Words(n) || (n%64 != 0 && v[len(v)-1]>>(n%64) != 0) {
				tb.Fatalf("draw of %d: output %d has %d words or a dirty tail", n, k, len(v))
			}
			out[k] = append(out[k], unpackWords(v, n)...)
		}
	}
	return out
}

func TestIKNPPadsPinned(t *testing.T) {
	// For fixed seeds, choice bits and OT indices the stream's outputs are
	// pinned: the digest below is what the stream produced while it still
	// extended in fixed 2048-OT chunks and hashed one row at a time.
	withEntropy(t, streamReader{newPRG(make([]byte, SeedLen))})
	s, r := fixedIKNPPair(network.New())
	out := drawAll(t, s, r, []int{3, 100, 2048, 1, 4000, 64})
	h := sha256.New()
	for _, v := range out {
		h.Write(v)
	}
	const want = "c56460a73223935f3c06199071bf9b72011bc762a1a194a52a691e67965c3d55"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("IKNP outputs digest %s, want %s", got, want)
	}
	n := len(out[0])
	for i := 0; i < n; i++ {
		if want := out[0][i] ^ out[2][i]&(out[0][i]^out[1][i]); out[3][i] != want {
			t.Fatalf("OT %d: wρ ≠ w_ρ", i)
		}
	}
}

func FuzzIKNPDrawSizes(f *testing.F) {
	// However a stream's OTs are cut into draws, they are the OTs one
	// draw of the total yields: the carry between draws loses, repeats and
	// reorders nothing, whatever the word alignment.
	f.Add([]byte{3, 7, 200, 1, 64, 0, 61})
	f.Fuzz(func(t *testing.T, raw []byte) {
		sizes := make([]int, len(raw))
		total := 0
		for i, b := range raw {
			sizes[i] = int(b)
			total += int(b)
		}
		withEntropy(t, streamReader{newPRG(make([]byte, SeedLen))})
		s, r := fixedIKNPPair(network.New())
		split := drawAll(t, s, r, sizes)
		withEntropy(t, streamReader{newPRG(make([]byte, SeedLen))})
		s, r = fixedIKNPPair(network.New())
		whole := drawAll(t, s, r, []int{total})
		for k := range split {
			if !bytes.Equal(split[k], whole[k]) {
				t.Fatalf("output %d of draws %v differs from one draw of %d", k, sizes, total)
			}
		}
	})
}

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops items at random and allocation counts stop repeating.
var raceEnabled bool

func TestIKNPDrawAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	// An extension allocates per call, never per OT: drawing 64 OTs and
	// drawing 65,536 cost the same few allocations. Each size gets a fresh
	// pair, so both walk the same sequence of hub mailboxes, warmed past the
	// OT indices below 256 that box into a tag without allocating. The
	// collector stays off while counting: a collection empties fmt's
	// sync.Pool, and the larger draws would trigger more of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		s, r := fixedIKNPPair(network.New())
		drawAll(t, s, r, []int{256})
		return testing.AllocsPerRun(10, func() {
			if _, _, err := r.RandomChoiceWords(context.Background(), n); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.RandomPadWords(context.Background(), n); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(1<<16)
	t.Logf("allocations per draw pair: %.0f for 64 OTs, %.0f for 65,536", small, large)
	if small != large || large > 40 {
		t.Errorf("a draw pair costs %.0f allocations for 64 OTs and %.0f for 65,536; want the same, at most 40", small, large)
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
