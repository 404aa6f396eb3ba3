package gmw

import (
	"context"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dstress/internal/circuit"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
	"dstress/internal/secretshare"
)

// runSession evaluates circuit c on plaintext inputs with n parties and
// returns the opened output bits, checking that all parties agree.
func runSession(t testing.TB, n int, c *circuit.Circuit, inputs []uint8, otOpt func() OTOption) []uint8 {
	t.Helper()
	net := network.New()
	parties := make([]network.NodeID, n)
	for i := range parties {
		parties[i] = network.NodeID(i + 1)
	}
	// Share each input bit across the parties.
	shares := make([][]uint8, n)
	for i := range shares {
		shares[i] = make([]uint8, len(inputs))
	}
	for b, v := range inputs {
		sh := secretshare.SplitXOR(uint64(v), n, 1)
		for i := range sh {
			shares[i][b] = uint8(sh[i])
		}
	}

	results := make([][]uint8, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	opt := otOpt()
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewParty(context.Background(), Config{
				Parties: parties, Index: i, Transport: net.Endpoint(parties[i]), Tag: "sess", OT: opt,
			})
			if err != nil {
				errs[i] = err
				return
			}
			outShares, err := p.Evaluate(context.Background(), c, shares[i])
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = p.Open(context.Background(), outShares)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		for b := range results[0] {
			if results[i][b] != results[0][b] {
				t.Fatalf("parties 0 and %d disagree on output bit %d", i, b)
			}
		}
	}
	return results[0]
}

func dealerOpt() OTOption { return DealerOT{Broker: ot.NewDealerBroker()} }

func TestANDTruthTable(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input()
	y := b.Input()
	b.Output(b.And(x, y))
	c := b.Build()
	for _, n := range []int{2, 3, 5} {
		for _, tc := range [][3]uint8{{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 1}} {
			got := runSession(t, n, c, []uint8{tc[0], tc[1]}, dealerOpt)
			if got[0] != tc[2] {
				t.Errorf("n=%d: %d∧%d = %d, want %d", n, tc[0], tc[1], got[0], tc[2])
			}
		}
	}
}

func TestXOROnlyCircuit(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input()
	y := b.Input()
	z := b.Input()
	b.Output(b.Xor(b.Xor(x, y), z))
	b.Output(b.Not(x))
	c := b.Build()
	got := runSession(t, 3, c, []uint8{1, 0, 1}, dealerOpt)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("got %v", got)
	}
}

func TestAdderMatchesPlaintext(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.InputWord(16)
	y := b.InputWord(16)
	b.OutputWord(b.Add(x, y))
	c := b.Build()
	in := append(circuit.EncodeWord(12345, 16), circuit.EncodeWord(-340, 16)...)
	want, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	got := runSession(t, 3, c, in, dealerOpt)
	if circuit.DecodeWordS(got) != circuit.DecodeWordS(want) {
		t.Errorf("GMW add = %d, plaintext = %d",
			circuit.DecodeWordS(got), circuit.DecodeWordS(want))
	}
}

func TestMulDivCircuitGMW(t *testing.T) {
	// A deeper circuit: (x*y) and x/y over 12-bit words.
	b := circuit.NewBuilder()
	x := b.InputWord(12)
	y := b.InputWord(12)
	b.OutputWord(b.Mul(x, y))
	b.OutputWord(b.DivU(x, y))
	c := b.Build()
	in := append(circuit.EncodeWord(97, 12), circuit.EncodeWord(13, 12)...)
	got := runSession(t, 3, c, in, dealerOpt)
	if v := circuit.DecodeWordU(got[:12]); v != (97*13)&0xfff {
		t.Errorf("mul = %d, want %d", v, (97*13)&0xfff)
	}
	if v := circuit.DecodeWordU(got[12:]); v != 97/13 {
		t.Errorf("div = %d, want %d", v, 97/13)
	}
}

func TestQuickGMWMatchesPlaintext(t *testing.T) {
	// Property: for random inputs, a mixed circuit evaluates identically
	// under GMW and plaintext evaluation.
	b := circuit.NewBuilder()
	x := b.InputWord(8)
	y := b.InputWord(8)
	sum := b.Add(x, y)
	prod := b.Mul(x, y)
	lt := b.LessS(x, y)
	b.OutputWord(b.MuxWord(lt, sum, prod))
	c := b.Build()

	f := func(xv, yv int8) bool {
		in := append(circuit.EncodeWord(int64(xv), 8), circuit.EncodeWord(int64(yv), 8)...)
		want, err := c.Eval(in)
		if err != nil {
			return false
		}
		got := runSession(t, 3, c, in, dealerOpt)
		return circuit.DecodeWordS(got) == circuit.DecodeWordS(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestMultipleEvaluationsPerSession(t *testing.T) {
	// A session must support repeated Evaluate/Open (DStress runs one MPC
	// per iteration in the same block).
	bld := circuit.NewBuilder()
	x := bld.InputWord(8)
	y := bld.InputWord(8)
	bld.OutputWord(bld.Add(x, y))
	c := bld.Build()

	const n = 3
	net := network.New()
	parties := []network.NodeID{1, 2, 3}
	broker := ot.NewDealerBroker()

	var wg sync.WaitGroup
	outs := make([][]int64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewParty(context.Background(), Config{Parties: parties, Index: i, Transport: net.Endpoint(parties[i]), Tag: "multi", OT: DealerOT{Broker: broker}})
			if err != nil {
				errs[i] = err
				return
			}
			for round := 0; round < 4; round++ {
				var inShare []uint8
				// Party 0 supplies the full input; others zero shares.
				xv, yv := int64(round*10), int64(round+1)
				full := append(circuit.EncodeWord(xv, 8), circuit.EncodeWord(yv, 8)...)
				if i == 0 {
					inShare = full
				} else {
					inShare = make([]uint8, len(full))
				}
				oShares, err := p.Evaluate(context.Background(), c, inShare)
				if err != nil {
					errs[i] = err
					return
				}
				open, err := p.Open(context.Background(), oShares)
				if err != nil {
					errs[i] = err
					return
				}
				outs[i] = append(outs[i], circuit.DecodeWordS(open))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	for round := 0; round < 4; round++ {
		want := int64(round*10) + int64(round+1)
		for i := 0; i < n; i++ {
			if outs[i][round] != want {
				t.Errorf("party %d round %d: got %d, want %d", i, round, outs[i][round], want)
			}
		}
	}
}

func TestEvaluateValidatesInput(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input()
	b.Output(x)
	c := b.Build()
	net := network.New()
	broker := ot.NewDealerBroker()
	var p0, p1 *Party
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p0, _ = NewParty(context.Background(), Config{Parties: []network.NodeID{1, 2}, Index: 0, Transport: net.Endpoint(1), Tag: "v", OT: DealerOT{Broker: broker}})
	}()
	go func() {
		defer wg.Done()
		p1, _ = NewParty(context.Background(), Config{Parties: []network.NodeID{1, 2}, Index: 1, Transport: net.Endpoint(2), Tag: "v", OT: DealerOT{Broker: broker}})
	}()
	wg.Wait()
	if p0 == nil || p1 == nil {
		t.Fatal("setup failed")
	}
	if _, err := p0.Evaluate(context.Background(), c, []uint8{}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := p0.Evaluate(context.Background(), c, []uint8{2}); err == nil {
		t.Error("non-bit share accepted")
	}
}

func TestNewPartyValidation(t *testing.T) {
	net := network.New()
	if _, err := NewParty(context.Background(), Config{Parties: []network.NodeID{1}, Index: 0, Transport: net.Endpoint(1), OT: dealerOpt()}); err == nil {
		t.Error("single-party session accepted")
	}
	if _, err := NewParty(context.Background(), Config{Parties: []network.NodeID{1, 2}, Index: 5, Transport: net.Endpoint(1), OT: dealerOpt()}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NewParty(context.Background(), Config{Parties: []network.NodeID{1, 2}, Index: 0, Transport: net.Endpoint(1), OT: nil}); err == nil {
		t.Error("nil OT option accepted")
	}
}

func TestIntermediatesStayShared(t *testing.T) {
	// Sanity check on the share representation: with 3 parties, no single
	// party's wire share should consistently equal the plaintext AND value
	// across runs (it stays masked by the OT randomness).
	b := circuit.NewBuilder()
	x := b.Input()
	y := b.Input()
	b.Output(b.And(x, y))
	c := b.Build()

	matches := 0
	const trials = 32
	for trial := 0; trial < trials; trial++ {
		net := network.New()
		parties := []network.NodeID{1, 2, 3}
		broker := ot.NewDealerBroker()
		shares := make([][]uint8, 3)
		// Plaintext inputs are (1,1) so the AND value is 1.
		for b := 0; b < 2; b++ {
			sh := secretshare.SplitXOR(1, 3, 1)
			for i := range sh {
				if shares[i] == nil {
					shares[i] = make([]uint8, 2)
				}
				shares[i][b] = uint8(sh[i])
			}
		}
		var wg sync.WaitGroup
		outShares := make([]uint8, 3)
		for i := 0; i < 3; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := NewParty(context.Background(), Config{Parties: parties, Index: i, Transport: net.Endpoint(parties[i]), Tag: "mask", OT: DealerOT{Broker: broker}})
				if err != nil {
					t.Error(err)
					return
				}
				o, err := p.Evaluate(context.Background(), c, shares[i])
				if err != nil {
					t.Error(err)
					return
				}
				outShares[i] = o[0]
			}()
		}
		wg.Wait()
		if outShares[0]^outShares[1]^outShares[2] != 1 {
			t.Fatal("shares do not reconstruct the AND value")
		}
		if outShares[0] == 1 {
			matches++
		}
	}
	if matches == 0 || matches == trials {
		t.Errorf("party 0's share equalled a fixed value in %d/%d trials; shares look unmasked", matches, trials)
	}
}

func TestTrafficScalesWithParties(t *testing.T) {
	// Online AND-gate traffic grows ~quadratically in total but linearly
	// per node (§5.3's observation).
	perNode := map[int]float64{}
	for _, n := range []int{3, 6} {
		b := circuit.NewBuilder()
		x := b.InputWord(16)
		y := b.InputWord(16)
		b.OutputWord(b.Mul(x, y))
		c := b.Build()
		net := network.New()
		parties := make([]network.NodeID, n)
		for i := range parties {
			parties[i] = network.NodeID(i + 1)
		}
		broker := ot.NewDealerBroker()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := NewParty(context.Background(), Config{Parties: parties, Index: i, Transport: net.Endpoint(parties[i]), Tag: "tr", OT: DealerOT{Broker: broker}})
				if err != nil {
					t.Error(err)
					return
				}
				in := make([]uint8, c.NumInputs)
				if _, err := p.Evaluate(context.Background(), c, in); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		perNode[n] = net.AvgNodeBytes()
	}
	ratio := perNode[6] / perNode[3]
	// Per-node traffic should roughly double going from 3 to 6 parties
	// (each node talks to n-1 peers: 5/2 = 2.5x at most).
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("per-node traffic ratio 6v3 parties = %.2f, expected ~2-2.5", ratio)
	}
}

func BenchmarkGMW3PartyMul16Dealer(b *testing.B) {
	bld := circuit.NewBuilder()
	x := bld.InputWord(16)
	y := bld.InputWord(16)
	bld.OutputWord(bld.Mul(x, y))
	c := bld.Build()
	in := append(circuit.EncodeWord(1234, 16), circuit.EncodeWord(567, 16)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSession(b, 3, c, in, dealerOpt)
	}
}

// runSubstrateSession evaluates c with n parties over per-node OT
// substrates (the deployment configuration), returning the opened bits and
// the substrates for handshake-count inspection.
func runSubstrateSession(t testing.TB, n int, c *circuit.Circuit, inputs []uint8, sessions int) ([]uint8, []*ot.Substrate) {
	t.Helper()
	net := network.New()
	parties := make([]network.NodeID, n)
	subs := make([]*ot.Substrate, n)
	for i := range parties {
		parties[i] = network.NodeID(i + 1)
		subs[i] = ot.NewSubstrate(group.ModP256(), net.Endpoint(parties[i]))
	}
	shares := make([][]uint8, n)
	for i := range shares {
		shares[i] = make([]uint8, len(inputs))
	}
	for b, v := range inputs {
		sh := secretshare.SplitXOR(uint64(v), n, 1)
		for i := range sh {
			shares[i][b] = uint8(sh[i])
		}
	}
	var out []uint8
	for s := 0; s < sessions; s++ {
		results := make([][]uint8, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := NewParty(context.Background(), Config{
					Parties: parties, Index: i, Transport: net.Endpoint(parties[i]),
					Tag: network.Tag("sess", s), OT: SubstrateOT{Sub: subs[i]},
				})
				if err != nil {
					errs[i] = err
					return
				}
				outShares, err := p.Evaluate(context.Background(), c, shares[i])
				if err != nil {
					errs[i] = err
					return
				}
				results[i], errs[i] = p.Open(context.Background(), outShares)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("session %d party %d: %v", s, i, err)
			}
		}
		for i := 1; i < n; i++ {
			for b := range results[0] {
				if results[i][b] != results[0][b] {
					t.Fatalf("session %d: parties 0 and %d disagree on bit %d", s, i, b)
				}
			}
		}
		out = results[0]
	}
	return out, subs
}

func TestSubstrateSession(t *testing.T) {
	// Full substrate path (real base OTs, PRF-derived session streams) with
	// 3 parties on a deep circuit.
	b := circuit.NewBuilder()
	x := b.InputWord(8)
	y := b.InputWord(8)
	b.OutputWord(b.Mul(x, y))
	c := b.Build()
	in := append(circuit.EncodeWord(9, 8), circuit.EncodeWord(11, 8)...)
	got, _ := runSubstrateSession(t, 3, c, in, 1)
	if v := circuit.DecodeWordU(got); v != 99 {
		t.Errorf("9*11 = %d", v)
	}
}

func TestSubstrateHandshakeCountAcrossSessions(t *testing.T) {
	// The regression this PR exists to prevent: standing up S sessions over
	// the same party set must run exactly one base-OT handshake per ordered
	// pair, not S of them.
	b := circuit.NewBuilder()
	x := b.Input()
	y := b.Input()
	b.Output(b.And(x, y))
	c := b.Build()
	const n, sessions = 3, 4
	_, subs := runSubstrateSession(t, n, c, []uint8{1, 1}, sessions)
	var total int64
	for i, s := range subs {
		if h := s.Handshakes(); h != int64(n-1) {
			t.Errorf("node %d: %d handshakes across %d sessions, want %d", i, h, sessions, n-1)
		}
		total += s.Handshakes()
	}
	if want := int64(n * (n - 1)); total != want {
		t.Errorf("deployment ran %d handshakes, want %d (= ordered pairs)", total, want)
	}
}

// randomCircuit builds a random mixed XOR/AND circuit over nIn inputs with
// nGates gates wired to earlier wires, every wire exported, so the packed
// evaluator's gather/scatter paths see arbitrary topologies.
func randomCircuit(rng *mrand.Rand, nIn, nGates int) *circuit.Circuit {
	b := circuit.NewBuilder()
	wires := []circuit.Wire{b.Zero(), b.One()}
	for i := 0; i < nIn; i++ {
		wires = append(wires, b.Input())
	}
	for g := 0; g < nGates; g++ {
		a := wires[rng.Intn(len(wires))]
		w := wires[rng.Intn(len(wires))]
		var out circuit.Wire
		if rng.Intn(2) == 0 {
			out = b.Xor(a, w)
		} else {
			out = b.And(a, w)
		}
		wires = append(wires, out)
	}
	// Export a spread of wires, always including the last.
	for i := 2; i < len(wires); i += 3 {
		b.Output(wires[i])
	}
	b.Output(wires[len(wires)-1])
	return b.Build()
}

func TestPackedEvaluateEquivalence(t *testing.T) {
	// Equivalence pin: the packed word-level Evaluate must agree with the
	// bit-at-a-time reference semantics (circuit.Eval) on random circuits
	// and random inputs, across party counts.
	rng := mrand.New(mrand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		nIn := 3 + rng.Intn(12)
		c := randomCircuit(rng, nIn, 20+rng.Intn(120))
		in := make([]uint8, nIn)
		for i := range in {
			in[i] = uint8(rng.Intn(2))
		}
		want, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + trial%3
		got := runSession(t, n, c, in, dealerOpt)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d parties, %d gates): output bit %d = %d, reference %d",
					trial, n, len(c.Gates), i, got[i], want[i])
			}
		}
	}
}

func BenchmarkEvaluateMul16Dealer(b *testing.B) {
	// Steady-state Evaluate cost over a standing session (per-iteration hot
	// path): 16-bit multiplier, 3 parties, dealer OTs.
	bld := circuit.NewBuilder()
	x := bld.InputWord(16)
	y := bld.InputWord(16)
	bld.OutputWord(bld.Mul(x, y))
	c := bld.Build()
	const n = 3
	net := network.New()
	parties := []network.NodeID{1, 2, 3}
	broker := ot.NewDealerBroker()
	ps := make([]*Party, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps[i], _ = NewParty(context.Background(), Config{
				Parties: parties, Index: i, Transport: net.Endpoint(parties[i]),
				Tag: "bench", OT: DealerOT{Broker: broker},
			})
		}()
	}
	wg.Wait()
	in := make([]uint8, c.NumInputs)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var ewg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			ewg.Add(1)
			go func() {
				defer ewg.Done()
				if _, err := ps[i].Evaluate(context.Background(), c, in); err != nil {
					b.Error(err)
				}
			}()
		}
		ewg.Wait()
	}
}

func BenchmarkSubstrateSessionSetup(b *testing.B) {
	// Deployment-open cost: S=4 sessions over one 3-party pair set. With
	// the substrate the base-OT bootstrap is paid once per ordered pair,
	// so adding sessions adds only PRF derivations.
	bld := circuit.NewBuilder()
	x := bld.Input()
	y := bld.Input()
	bld.Output(bld.And(x, y))
	c := bld.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		runSubstrateSession(b, 3, c, []uint8{1, 1}, 4)
	}
}
