// Package gmw implements the Goldreich–Micali–Wigderson protocol for
// semi-honest n-party computation of Boolean circuits over XOR shares.
//
// This is the MPC engine behind every DStress computation step: the members
// of a block hold XOR shares of the vertex state and incoming messages, run
// the update function's circuit through GMW, and end up with XOR shares of
// the new state and outgoing messages, never reconstructing any
// intermediate value (§3.3, §3.6). The paper's prototype uses the GMW
// implementation of Choi et al. under the Wysteria runtime (§5.1); this
// package is a from-scratch Go equivalent.
//
// Protocol recap. Every wire w carries a sharing ⟨w⟩ = (w₁,…,wₙ) with
// w = ⊕ᵢwᵢ:
//
//   - XOR gates are free: each party XORs its shares locally.
//   - The public constant 1 is shared as (1,0,…,0).
//   - An AND gate x∧y expands to ⊕ᵢxᵢyᵢ ⊕ ⊕_{i≠j} xᵢyⱼ. Party i computes
//     xᵢyᵢ locally; each cross term xᵢyⱼ is computed with one 1-of-2 OT in
//     which sender i inputs (r, r⊕xᵢ) for fresh random r and receiver j
//     selects with yⱼ, so the pair obtains an XOR sharing (r, r⊕xᵢyⱼ).
//
// All AND gates of one multiplicative-depth level are batched into a single
// message exchange per ordered party pair (the interaction schedule comes
// from circuit.Rounds), which is what makes the per-step latency of §5.2
// proportional to circuit depth rather than AND count.
//
// The data plane is packed: wire values live in a []uint64 bitmap, an AND
// round gathers its operand bits into packed words once, and everything
// downstream — the local xᵢyᵢ term, the OT pads and derandomization masks,
// the per-peer share accumulation — is 64-bits-at-a-time word arithmetic
// (see internal/ot's packed variants and circuit.PackedRounds).
//
// Collusion resistance matches the paper: with k+1 parties, any k colluders
// miss at least one share of every wire (GMW is secure against n−1
// semi-honest corruptions).
package gmw

import (
	"context"
	"fmt"
	"sync"

	"dstress/internal/circuit"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
)

// OTOption selects how the pairwise oblivious transfers are provisioned.
type OTOption interface{ otOption() }

// SubstrateOT attaches the session to a deployment-wide pairwise OT
// substrate: the base-OT handshake runs (at most) once per ordered node
// pair per deployment, and this session derives its own extension streams
// from it via a PRF over the session tag. This is the configuration that
// models the paper's prototype faithfully at deployment scale.
type SubstrateOT struct{ Sub *ot.Substrate }

// DealerOT draws correlated randomness from a trusted-party broker
// (offline/online split). Online traffic is identical to SubstrateOT's
// minus the 16-byte-per-OT extension messages; see internal/ot for the
// argument that this preserves the TP's never-sees-private-data property.
// One broker serves a whole deployment: sessions get independent streams
// derived from the broker's per-pair master seeds by session tag.
type DealerOT struct{ Broker *ot.DealerBroker }

func (SubstrateOT) otOption() {}
func (DealerOT) otOption()    {}

// Config describes one party's view of a GMW session.
type Config struct {
	// Parties lists the session members in a globally agreed order.
	Parties []network.NodeID
	// Index is this party's position in Parties.
	Index int
	// Transport is this party's attachment to the messaging layer (the
	// in-process hub endpoint or a tcpnet peer); its ID must equal
	// Parties[Index].
	Transport network.Transport
	// Tag namespaces this session's traffic.
	Tag string
	// OT selects the OT provisioning (SubstrateOT or DealerOT).
	OT OTOption
}

// Party is one session member. All parties of a session must execute the
// same sequence of Evaluate/Open calls with the same circuits.
type Party struct {
	cfg  Config
	ep   network.Transport
	n    int
	me   int
	send map[int]*ot.BitSender   // ordered pair me→j
	recv map[int]*ot.BitReceiver // ordered pair j→me
	seq  int
}

// NewParty joins the session described by cfg. For SubstrateOT the call
// blocks on pairs whose one-time base-OT handshake hasn't happened yet, so
// the n parties must call it concurrently. Canceling ctx aborts a handshake
// stuck on an absent peer.
func NewParty(ctx context.Context, cfg Config) (*Party, error) {
	n := len(cfg.Parties)
	if n < 2 {
		return nil, fmt.Errorf("gmw: need at least 2 parties, got %d", n)
	}
	if cfg.Index < 0 || cfg.Index >= n {
		return nil, fmt.Errorf("gmw: index %d out of range", cfg.Index)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("gmw: nil transport")
	}
	if cfg.Transport.ID() != cfg.Parties[cfg.Index] {
		return nil, fmt.Errorf("gmw: transport belongs to node %d, party %d is node %d",
			cfg.Transport.ID(), cfg.Index, cfg.Parties[cfg.Index])
	}
	p := &Party{
		cfg:  cfg,
		ep:   cfg.Transport,
		n:    n,
		me:   cfg.Index,
		send: make(map[int]*ot.BitSender),
		recv: make(map[int]*ot.BitReceiver),
	}

	switch opt := cfg.OT.(type) {
	case DealerOT:
		for j := 0; j < n; j++ {
			if j == p.me {
				continue
			}
			// Streams are keyed by global node ids plus the session tag:
			// one deployment-wide broker hands every session of every pair
			// its own derived stream, consumed in lockstep within that
			// session only.
			sTag := network.Tag(cfg.Tag, "ot", p.me, j)
			rTag := network.Tag(cfg.Tag, "ot", j, p.me)
			si, sj := int(cfg.Parties[p.me]), int(cfg.Parties[j])
			ds, err := opt.Broker.Sender(si, sj, cfg.Tag)
			if err != nil {
				return nil, fmt.Errorf("gmw: dealer stream for pair (%d,%d): %w", si, sj, err)
			}
			dr, err := opt.Broker.Receiver(sj, si, cfg.Tag)
			if err != nil {
				return nil, fmt.Errorf("gmw: dealer stream for pair (%d,%d): %w", sj, si, err)
			}
			p.send[j] = ot.NewBitSender(ds, p.ep, cfg.Parties[j], sTag)
			p.recv[j] = ot.NewBitReceiver(dr, p.ep, cfg.Parties[j], rTag)
		}
	case SubstrateOT:
		// Run all 2(n-1) attachments concurrently; they interleave freely
		// because tags separate the directions.
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		record := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		for j := 0; j < n; j++ {
			if j == p.me {
				continue
			}
			j := j
			wg.Add(2)
			go func() {
				defer wg.Done()
				sTag := network.Tag(cfg.Tag, "ot", p.me, j)
				src, err := opt.Sub.SenderFor(ctx, cfg.Parties[j], sTag)
				if err != nil {
					record(err)
					return
				}
				mu.Lock()
				p.send[j] = ot.NewBitSender(src, p.ep, cfg.Parties[j], sTag)
				mu.Unlock()
			}()
			go func() {
				defer wg.Done()
				rTag := network.Tag(cfg.Tag, "ot", j, p.me)
				src, err := opt.Sub.ReceiverFor(ctx, cfg.Parties[j], rTag)
				if err != nil {
					record(err)
					return
				}
				mu.Lock()
				p.recv[j] = ot.NewBitReceiver(src, p.ep, cfg.Parties[j], rTag)
				mu.Unlock()
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, fmt.Errorf("gmw: OT setup: %w", firstErr)
		}
	default:
		return nil, fmt.Errorf("gmw: unknown OT option %T", cfg.OT)
	}
	return p, nil
}

// N returns the number of session parties.
func (p *Party) N() int { return p.n }

// Index returns this party's session index.
func (p *Party) Index() int { return p.me }

// Evaluate runs the circuit on this party's input shares and returns its
// shares of the outputs. The XOR over all parties' inputShares must equal
// the plaintext input bits; likewise for the returned output shares.
func (p *Party) Evaluate(ctx context.Context, c *circuit.Circuit, inputShares []uint8) ([]uint8, error) {
	if len(inputShares) != c.NumInputs {
		return nil, fmt.Errorf("gmw: got %d input shares, want %d", len(inputShares), c.NumInputs)
	}
	evalID := p.seq
	p.seq++

	// Wire values as a packed bitmap; every wire is written exactly once.
	vals := make([]uint64, ot.Words(c.NumWires()))
	// Public constant one: party 0 holds the set share.
	if p.me == 0 {
		ot.SetBit(vals, int(circuit.WireOne), 1)
	}
	for i, b := range inputShares {
		if b > 1 {
			return nil, fmt.Errorf("gmw: input share %d is not a bit", i)
		}
		ot.SetBit(vals, 2+i, uint64(b))
	}

	obs.Add(ctx, "gmw/evals", 1)
	packed := c.PackedRounds()
	for r, round := range c.Rounds {
		if len(round.And) > 0 {
			obs.Add(ctx, "gmw/and_rounds", 1)
			obs.Add(ctx, "gmw/and_gates", int64(len(round.And)))
			if err := p.andRound(ctx, vals, &packed[r], evalID, r); err != nil {
				return nil, err
			}
		}
		for _, gi := range round.Local {
			g := c.Gates[gi]
			ot.SetBit(vals, 2+c.NumInputs+gi, ot.Bit(vals, int(g.A))^ot.Bit(vals, int(g.B)))
		}
	}

	out := make([]uint8, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = uint8(ot.Bit(vals, int(w)))
	}
	return out, nil
}

// andRound evaluates a batch of AND gates with one OT exchange per ordered
// party pair, entirely on packed words. Each peer direction accumulates
// into its own buffer; the buffers are XOR-folded after the barrier, so the
// hot path never contends on a shared accumulator.
func (p *Party) andRound(ctx context.Context, vals []uint64, pr *circuit.PackedRound, evalID, round int) error {
	nG := len(pr.Out)
	nW := ot.Words(nG)
	xs := make([]uint64, nW) // my shares of the A inputs, gathered
	ys := make([]uint64, nW) // my shares of the B inputs, gathered
	for k := range pr.Out {
		sh := uint(k) & 63
		xs[k>>6] |= ot.Bit(vals, int(pr.A[k])) << sh
		ys[k>>6] |= ot.Bit(vals, int(pr.B[k])) << sh
	}
	acc := make([]uint64, nW)
	for w := range acc {
		acc[w] = xs[w] & ys[w] // local diagonal term xᵢyᵢ
	}

	sent := make([][]uint64, p.n) // my pads r, per sender direction
	got := make([][]uint64, p.n)  // received cross-term shares, per receiver direction
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for j := 0; j < p.n; j++ {
		if j == p.me {
			continue
		}
		j := j
		wg.Add(2)
		// Sender direction me→j: contribute r, peer learns r ⊕ xs·(their y).
		go func() {
			defer wg.Done()
			r, err := ot.RandomWords(nG)
			if err != nil {
				record(fmt.Errorf("gmw: eval %d round %d pad draw for %d: %w", evalID, round, j, err))
				return
			}
			m1 := make([]uint64, nW)
			for w := range m1 {
				m1[w] = r[w] ^ xs[w]
			}
			if err := p.send[j].SendPacked(ctx, r, m1, nG); err != nil {
				record(fmt.Errorf("gmw: eval %d round %d send to %d: %w", evalID, round, j, err))
				return
			}
			sent[j] = r
		}()
		// Receiver direction j→me: select with my y shares.
		go func() {
			defer wg.Done()
			g, err := p.recv[j].ReceivePacked(ctx, ys, nG)
			if err != nil {
				record(fmt.Errorf("gmw: eval %d round %d recv from %d: %w", evalID, round, j, err))
				return
			}
			got[j] = g
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for j := 0; j < p.n; j++ {
		if sent[j] != nil {
			ot.XorInto(acc, sent[j])
		}
		if got[j] != nil {
			ot.XorInto(acc, got[j])
		}
	}
	for k, w := range pr.Out {
		ot.SetBit(vals, int(w), ot.Bit(acc, k))
	}
	return nil
}

// Open reconstructs shared bits by broadcasting shares to all session
// members; every party learns the plaintext. DStress only ever opens the
// final noised aggregate (§3.6); intermediate wires stay shared.
func (p *Party) Open(ctx context.Context, shares []uint8) ([]uint8, error) {
	seq := p.seq
	p.seq++
	tag := network.Tag(p.cfg.Tag, "open", seq)
	packed := ot.PackBits(shares)
	for j := 0; j < p.n; j++ {
		if j != p.me {
			if err := p.ep.Send(p.cfg.Parties[j], tag, packed); err != nil {
				return nil, fmt.Errorf("gmw: open: %w", err)
			}
		}
	}
	out := make([]uint8, len(shares))
	copy(out, shares)
	for j := 0; j < p.n; j++ {
		if j == p.me {
			continue
		}
		data, err := p.ep.Recv(ctx, p.cfg.Parties[j], tag)
		if err != nil {
			return nil, fmt.Errorf("gmw: open: %w", err)
		}
		theirs := ot.UnpackBits(data, len(shares))
		for i := range out {
			out[i] ^= theirs[i]
		}
	}
	return out, nil
}
