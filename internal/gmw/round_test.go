package gmw

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"

	"dstress/internal/circuit"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
)

// Tests of the fused AND round: the Beaver multiplication on random-OT
// correlations, its frame shape, its validation and the masking of what it
// opens.

// sentFrame is one message a party handed its transport.
type sentFrame struct {
	from, to network.NodeID
	tag      string
	payload  []byte
}

// recorder wraps a transport and keeps a copy of every message sent.
type recorder struct {
	network.Transport
	mu   *sync.Mutex
	sent *[]sentFrame
}

func (r recorder) Send(to network.NodeID, tag string, payload []byte) error {
	r.mu.Lock()
	*r.sent = append(*r.sent, sentFrame{r.ID(), to, tag, append([]byte(nil), payload...)})
	r.mu.Unlock()
	return r.Transport.Send(to, tag, payload)
}

// otModes are the two OT provisionings; each builds one option per party
// of a fresh hub.
var otModes = []struct {
	name string
	opts func(eps []network.Transport) []OTOption
}{
	{"dealer", func(eps []network.Transport) []OTOption {
		b := ot.NewDealerBroker()
		out := make([]OTOption, len(eps))
		for i := range out {
			out[i] = DealerOT{Broker: b}
		}
		return out
	}},
	{"substrate", func(eps []network.Transport) []OTOption {
		out := make([]OTOption, len(eps))
		for i, ep := range eps {
			out[i] = SubstrateOT{Sub: ot.NewSubstrate(group.ModP256(), ep)}
		}
		return out
	}},
}

// session is an n-party session on a fresh hub whose sends are recorded.
type session struct {
	ps   []*Party
	mu   sync.Mutex
	sent []sentFrame
}

func newSession(t testing.TB, n int, opts func([]network.Transport) []OTOption) *session {
	t.Helper()
	s := &session{ps: make([]*Party, n)}
	net := network.New()
	ids := make([]network.NodeID, n)
	eps := make([]network.Transport, n)
	for i := range ids {
		ids[i] = network.NodeID(i + 1)
		eps[i] = recorder{Transport: net.Endpoint(ids[i]), mu: &s.mu, sent: &s.sent}
	}
	o := opts(eps)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range s.ps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.ps[i], errs[i] = NewParty(context.Background(), Config{
				Parties: ids, Index: i, Transport: eps[i], Tag: "fused", OT: o[i],
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	s.reset()
	return s
}

// reset forgets the messages sent so far (the substrate handshakes).
func (s *session) reset() {
	s.mu.Lock()
	s.sent = nil
	s.mu.Unlock()
}

// eval runs one Evaluate on every party with its own input shares and
// returns every party's output shares.
func (s *session) eval(t testing.TB, c *circuit.Circuit, shares [][]uint8) [][]uint8 {
	t.Helper()
	out := make([][]uint8, len(s.ps))
	errs := make([]error, len(s.ps))
	var wg sync.WaitGroup
	for i, p := range s.ps {
		wg.Add(1)
		go func(i int, p *Party) {
			defer wg.Done()
			out[i], errs[i] = p.Evaluate(context.Background(), c, shares[i])
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	return out
}

// andBatch is a circuit of nG independent AND gates, one round: input 2k
// and 2k+1 feed gate k.
func andBatch(nG int) *circuit.Circuit {
	b := circuit.NewBuilder()
	in := make([]circuit.Wire, 2*nG)
	for i := range in {
		in[i] = b.Input()
	}
	for k := 0; k < nG; k++ {
		b.Output(b.And(in[2*k], in[2*k+1]))
	}
	return b.Build()
}

// andRounds returns the indices of c's rounds that hold AND gates, the
// round numbers the frame tags carry.
func andRounds(c *circuit.Circuit) []int {
	var rs []int
	for r, round := range c.Rounds {
		if len(round.And) > 0 {
			rs = append(rs, r)
		}
	}
	return rs
}

func TestFusedANDEveryRowAndSplit(t *testing.T) {
	// One gate per (x, y, split of x, split of y): every truth-table row
	// under every way of XOR-sharing its operands, in one round.
	for _, mode := range otModes {
		for _, n := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(t *testing.T) {
				splits := 1 << (n - 1) // party 0's share is fixed by the others
				type gate struct{ x, y, sx, sy int }
				var gates []gate
				for x := 0; x < 2; x++ {
					for y := 0; y < 2; y++ {
						for sx := 0; sx < splits; sx++ {
							for sy := 0; sy < splits; sy++ {
								gates = append(gates, gate{x, y, sx, sy})
							}
						}
					}
				}
				c := andBatch(len(gates))
				shares := make([][]uint8, n)
				for i := range shares {
					shares[i] = make([]uint8, c.NumInputs)
				}
				share := func(v, split, in int) {
					acc := v
					for i := 1; i < n; i++ {
						bit := (split >> (i - 1)) & 1
						shares[i][in] = uint8(bit)
						acc ^= bit
					}
					shares[0][in] = uint8(acc)
				}
				for k, g := range gates {
					share(g.x, g.sx, 2*k)
					share(g.y, g.sy, 2*k+1)
				}
				out := newSession(t, n, mode.opts).eval(t, c, shares)
				for k, g := range gates {
					var v uint8
					for i := range out {
						v ^= out[i][k]
					}
					if want := uint8(g.x & g.y); v != want {
						t.Fatalf("gate %+v: shares XOR to %d, want %d", g, v, want)
					}
				}
			})
		}
	}
}

func TestFusedANDBatchTails(t *testing.T) {
	// Batch widths on both sides of the 64-bit word and the 8-bit frame
	// byte, with several rounds over one session so streams stay in
	// lockstep across uneven draws.
	rng := mrand.New(mrand.NewSource(11))
	for _, mode := range otModes {
		t.Run(mode.name, func(t *testing.T) {
			const n = 3
			s := newSession(t, n, mode.opts)
			for _, nG := range []int{1, 63, 64, 65, 130} {
				c := andBatch(nG)
				in := make([]uint8, c.NumInputs)
				shares := make([][]uint8, n)
				for i := range shares {
					shares[i] = make([]uint8, c.NumInputs)
				}
				for b := range in {
					in[b] = uint8(rng.Intn(2))
					shares[0][b] = in[b]
					for i := 1; i < n; i++ {
						shares[i][b] = uint8(rng.Intn(2))
						shares[0][b] ^= shares[i][b]
					}
				}
				out := s.eval(t, c, shares)
				for k := 0; k < nG; k++ {
					v := out[0][k] ^ out[1][k] ^ out[2][k]
					if want := in[2*k] & in[2*k+1]; v != want {
						t.Fatalf("nG=%d gate %d: got %d, want %d", nG, k, v, want)
					}
				}
			}
		})
	}
}

func TestFusedANDWireShape(t *testing.T) {
	// Each AND round is one frame per ordered pair, d‖e of 2·⌈nG/8⌉
	// bytes; nothing else crosses the wire under dealer OTs.
	const n = 4
	b := circuit.NewBuilder()
	x, y := b.InputWord(16), b.InputWord(16)
	b.OutputWord(b.Mul(x, y))
	c := b.Build()
	s := newSession(t, n, otModes[0].opts)
	shares := make([][]uint8, n)
	for i := range shares {
		shares[i] = make([]uint8, c.NumInputs)
	}
	s.eval(t, c, shares)

	rounds := andRounds(c)
	if got, want := len(s.sent), len(rounds)*n*(n-1); got != want {
		t.Fatalf("Evaluate sent %d frames, want rounds·n(n−1) = %d·%d = %d", got, len(rounds), n*(n-1), want)
	}
	type key struct {
		from, to network.NodeID
		tag      string
	}
	seen := make(map[key]int)
	for _, f := range s.sent {
		seen[key{f.from, f.to, f.tag}]++
	}
	for _, r := range rounds {
		want := 2 * ((len(c.Rounds[r].And) + 7) / 8)
		tag := network.Tag("fused", "and", 0, r)
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if i == j {
					continue
				}
				k := key{network.NodeID(i), network.NodeID(j), tag}
				if seen[k] != 1 {
					t.Fatalf("round %d: %d→%d sent %d frames, want 1", r, i, j, seen[k])
				}
			}
		}
		for _, f := range s.sent {
			if f.tag == tag && len(f.payload) != want {
				t.Fatalf("round %d (%d gates): %d-byte frame, want %d", r, len(c.Rounds[r].And), len(f.payload), want)
			}
		}
	}
}

func TestFusedANDWrongFrameLength(t *testing.T) {
	// Node 2 is played by the test: it sends node 1 a frame one byte short,
	// and node 1's Evaluate must return ErrBadFrame, not panic or hang.
	c := andBatch(9)
	net := network.New()
	ids := []network.NodeID{1, 2}
	p, err := NewParty(context.Background(), Config{
		Parties: ids, Index: 0, Transport: net.Endpoint(1), Tag: "bad", OT: DealerOT{Broker: ot.NewDealerBroker()},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := andRounds(c)[0]
	if err := net.Endpoint(2).Send(1, network.Tag("bad", "and", 0, r), make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	_, err = p.Evaluate(context.Background(), c, make([]uint8, c.NumInputs))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Evaluate returned %v, want ErrBadFrame", err)
	}
	if want := fmt.Sprintf("round %d: 3 bytes from node 2, want 4", r); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
}

func TestFusedANDOpenedBitsBalanced(t *testing.T) {
	// What a round opens is masked: with party 0's x and y shares all 0,
	// or all 1, the d and e halves of its frame are each about half ones.
	const nG = 4096
	c := andBatch(nG)
	for _, mode := range otModes {
		for _, v := range []uint8{0, 1} {
			s := newSession(t, 2, mode.opts)
			shares := [][]uint8{make([]uint8, c.NumInputs), make([]uint8, c.NumInputs)}
			for b := range shares[0] {
				shares[0][b] = v
			}
			s.eval(t, c, shares)
			tag := network.Tag("fused", "and", 0, andRounds(c)[0])
			frames := 0
			for _, f := range s.sent {
				if f.from != 1 || f.tag != tag {
					continue
				}
				frames++
				half := len(f.payload) / 2
				for h, name := range []string{"d", "e"} {
					ones := 0
					for _, by := range f.payload[h*half : (h+1)*half] {
						for ; by != 0; by &= by - 1 {
							ones++
						}
					}
					if frac := float64(ones) / nG; frac < 0.45 || frac > 0.55 {
						t.Errorf("%s, shares all %d: opened %s has %.3f ones", mode.name, v, name, frac)
					}
				}
			}
			if frames != 1 {
				t.Errorf("%s: party 0 sent %d AND frames, want 1", mode.name, frames)
			}
		}
	}
}

func TestSubstrateExtendsOncePerEvaluation(t *testing.T) {
	// Under SubstrateOT each stream extends once per Evaluate, at its head,
	// however many AND rounds the circuit has: one blob of 16 bytes per OT
	// of the shortfall rounded up to a word, tagged with the stream's first
	// OT index. AND counts that are not multiples of 64 leave OTs over, and
	// the next evaluation uses those first.
	b := circuit.NewBuilder()
	x, y := b.InputWord(7), b.InputWord(7)
	b.OutputWord(b.Mul(x, y))
	mul := b.Build()
	circuits := []*circuit.Circuit{mul, andBatch(5), andBatch(70), mul}

	const n = 3
	rng := mrand.New(mrand.NewSource(3))
	s := newSession(t, n, otModes[1].opts)
	extended, left := 0, 0 // per stream, the same on every one
	for e, c := range circuits {
		if c.NumAnd%64 == 0 {
			t.Fatalf("evaluation %d: %d AND gates, want a count that leaves OTs over", e, c.NumAnd)
		}
		in := make([]uint8, c.NumInputs)
		shares := make([][]uint8, n)
		for i := range shares {
			shares[i] = make([]uint8, c.NumInputs)
		}
		for k := range in {
			in[k] = uint8(rng.Intn(2))
			shares[0][k] = in[k]
			for i := 1; i < n; i++ {
				shares[i][k] = uint8(rng.Intn(2))
				shares[0][k] ^= shares[i][k]
			}
		}
		s.reset()
		out := s.eval(t, c, shares)
		want, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if v := out[0][k] ^ out[1][k] ^ out[2][k]; v != want[k] {
				t.Fatalf("evaluation %d output %d: got %d, want %d", e, k, v, want[k])
			}
		}

		m := 0
		if c.NumAnd > left {
			m = (c.NumAnd - left + 63) &^ 63
		}
		blobs := 0
		for _, f := range s.sent {
			if !strings.Contains(f.tag, "/ext/") {
				continue
			}
			blobs++
			if !strings.HasSuffix(f.tag, fmt.Sprintf("/ext/%d", extended)) || len(f.payload) != 16*m {
				t.Errorf("evaluation %d: blob %q of %d bytes, want one under ext/%d of %d", e, f.tag, len(f.payload), extended, 16*m)
			}
		}
		t.Logf("evaluation %d: %d ANDs in %d rounds, %d left over, %d extended", e, c.NumAnd, len(andRounds(c)), left, m)
		if wantBlobs := n * (n - 1) * min(m, 1); blobs != wantBlobs {
			t.Errorf("evaluation %d (%d ANDs, %d left over): %d extension blobs, want %d", e, c.NumAnd, left, blobs, wantBlobs)
		}
		extended += m
		left += m - c.NumAnd
	}
}
