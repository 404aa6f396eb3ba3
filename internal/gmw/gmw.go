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
//     xᵢyᵢ locally. Each cross term xᵢyⱼ is a Beaver multiplication on the
//     correlation one random OT from i to j already is: sender i holds pads
//     (w0, w1), receiver j holds (ρ, wρ), and w0 ⊕ wρ = ρ·Δ with
//     Δ = w0 ⊕ w1. In one simultaneous exchange i opens d = xᵢ ⊕ Δ and j
//     opens e = yⱼ ⊕ ρ; i keeps w0 ⊕ (xᵢ∧e) and j keeps wρ ⊕ (d∧ρ), which
//     XOR to xᵢyⱼ.
//
// All AND gates of one multiplicative-depth level are batched into a single
// round (the interaction schedule comes from circuit.Rounds), which is what
// makes the per-step latency of §5.2 proportional to circuit depth rather
// than AND count. A round is one half-trip: each party sends each peer one
// frame d‖e (its d as sender of the pair toward that peer, its e as
// receiver of the reverse pair) and reads the peer's back.
//
// The data plane is packed: wire values live in a []uint64 bitmap and an
// AND round is 64-bits-at-a-time word arithmetic from the gathered operand
// shares (see circuit.PackedRounds) to the accumulated output shares.
//
// Collusion resistance matches the paper: with k+1 parties, any k colluders
// miss at least one share of every wire (GMW is secure against n−1
// semi-honest corruptions). An opened d is masked by Δ, which the receiver
// cannot know (it holds only wρ), and an opened e by ρ, which the sender
// cannot know; every pair and round uses fresh OTs.
package gmw

import (
	"context"
	"errors"
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
	cfg Config
	ep  network.Transport
	n   int
	me  int
	snd []ot.RandomOTSender   // by peer index: ordered pair me→j
	rcv []ot.RandomOTReceiver // by peer index: ordered pair j→me
	seq int

	// AND-round scratch, grown to the widest round and reused after it.
	xs, ys, acc, tmp []uint64
	frame            []byte
}

// evalOTs are one evaluation's random OTs with one peer, a circuit's AND
// count of them per direction: (ρ, wρ) as receiver of the pair peer→me and
// (w0, w1) as its sender. AND round r uses the bits from the round's offset,
// the number of AND gates in the rounds before it.
type evalOTs struct{ rho, wRho, w0, w1 []uint64 }

// ErrBadFrame marks an AND-round frame whose length is not the 2·⌈nG/8⌉
// bytes its round's gate count fixes.
var ErrBadFrame = errors.New("gmw: AND-round frame of the wrong length")

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
		cfg: cfg,
		ep:  cfg.Transport,
		n:   n,
		me:  cfg.Index,
		snd: make([]ot.RandomOTSender, n),
		rcv: make([]ot.RandomOTReceiver, n),
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
			si, sj := int(cfg.Parties[p.me]), int(cfg.Parties[j])
			ds, err := opt.Broker.Sender(si, sj, cfg.Tag)
			if err != nil {
				return nil, fmt.Errorf("gmw: dealer stream for pair (%d,%d): %w", si, sj, err)
			}
			dr, err := opt.Broker.Receiver(sj, si, cfg.Tag)
			if err != nil {
				return nil, fmt.Errorf("gmw: dealer stream for pair (%d,%d): %w", sj, si, err)
			}
			p.snd[j], p.rcv[j] = ds, dr
		}
	case SubstrateOT:
		// One goroutine per peer: its first attachment runs (or joins) the
		// pair's handshake, which both ends enter concurrently, and the
		// second is then a local derivation.
		errs := make([]error, n)
		var wg sync.WaitGroup
		for j := 0; j < n; j++ {
			if j == p.me {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				peer := cfg.Parties[j]
				if p.snd[j], errs[j] = opt.Sub.SenderFor(ctx, peer, network.Tag(cfg.Tag, "ot", p.me, j)); errs[j] == nil {
					p.rcv[j], errs[j] = opt.Sub.ReceiverFor(ctx, peer, network.Tag(cfg.Tag, "ot", j, p.me))
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("gmw: OT setup: %w", err)
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
	ots, err := p.drawOTs(ctx, c.NumAnd, evalID)
	if err != nil {
		return nil, err
	}

	obs.Add(ctx, "gmw/evals", 1)
	packed := c.PackedRounds()
	off := 0
	for r, round := range c.Rounds {
		if len(round.And) > 0 {
			obs.Add(ctx, "gmw/and_rounds", 1)
			obs.Add(ctx, "gmw/and_gates", int64(len(round.And)))
			if err := p.andRound(ctx, vals, &packed[r], ots, off, evalID, r); err != nil {
				return nil, err
			}
			off += len(round.And)
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

// drawOTs draws an evaluation's nA random OTs with every peer, both
// directions, in an order that keeps IKNP streams deadlock-free: first
// every receiver-side draw (under IKNP the side that sends the extension
// blob, without waiting on anyone), then every sender-side draw (which may
// wait for the peer's blob, sent by the peer's first loop). Each stream
// gives up exactly nA OTs per evaluation, so the two ends of every pair
// stay in lockstep, and no AND round waits on an extension.
func (p *Party) drawOTs(ctx context.Context, nA, evalID int) ([]evalOTs, error) {
	ots := make([]evalOTs, p.n)
	for j, src := range p.rcv {
		if j == p.me {
			continue
		}
		var err error
		if ots[j].rho, ots[j].wRho, err = src.RandomChoiceWords(ctx, nA); err != nil {
			return nil, fmt.Errorf("gmw: eval %d OTs from %d: %w", evalID, j, err)
		}
	}
	for j, src := range p.snd {
		if j == p.me {
			continue
		}
		var err error
		if ots[j].w0, ots[j].w1, err = src.RandomPadWords(ctx, nA); err != nil {
			return nil, fmt.Errorf("gmw: eval %d OTs to %d: %w", evalID, j, err)
		}
	}
	return ots, nil
}

// andRound evaluates a batch of AND gates in one half-trip, entirely on
// packed words, on bits [off, off+nG) of the evaluation's OTs: one frame
// to each peer, then one frame from each.
func (p *Party) andRound(ctx context.Context, vals []uint64, pr *circuit.PackedRound, ots []evalOTs, off, evalID, round int) error {
	nG := len(pr.Out)
	nW := ot.Words(nG)
	nb := (nG + 7) / 8
	if cap(p.xs) < nW {
		p.xs, p.ys = make([]uint64, nW), make([]uint64, nW)
		p.acc, p.tmp = make([]uint64, nW), make([]uint64, nW)
		p.frame = make([]byte, 16*nW) // 2·⌈nG/8⌉ ≤ 16·nW
	}
	xs, ys, acc, tmp := p.xs[:nW], p.ys[:nW], p.acc[:nW], p.tmp[:nW]
	frame := p.frame[:2*nb]
	clear(xs)
	clear(ys)
	for k := range pr.Out {
		sh := uint(k) & 63
		xs[k>>6] |= ot.Bit(vals, int(pr.A[k])) << sh // my shares of the A inputs
		ys[k>>6] |= ot.Bit(vals, int(pr.B[k])) << sh // my shares of the B inputs
	}
	for w := range acc {
		acc[w] = xs[w] & ys[w] // local diagonal term xᵢyᵢ
	}

	// As receiver of pair j→me my share is wρ ⊕ (d∧ρ), as sender of
	// me→j it is w0 ⊕ (x∧e): the pads go into acc now, the rest once the
	// peer's d and e arrive.
	tag := network.Tag(p.cfg.Tag, "and", evalID, round)
	for j := range ots {
		if j == p.me {
			continue
		}
		o := &ots[j]
		for w := range acc {
			w0 := ot.WordAt(o.w0, off+64*w)
			acc[w] ^= ot.WordAt(o.wRho, off+64*w) ^ w0
			tmp[w] = ot.WordAt(o.w1, off+64*w) ^ w0 ^ xs[w] // d = x ⊕ Δ
		}
		ot.PutWords(frame[:nb], tmp, nG)
		for w := range tmp {
			tmp[w] = ys[w] ^ ot.WordAt(o.rho, off+64*w) // e = y ⊕ ρ
		}
		ot.PutWords(frame[nb:], tmp, nG)
		if err := p.ep.Send(p.cfg.Parties[j], tag, frame); err != nil {
			return fmt.Errorf("gmw: eval %d round %d send to %d: %w", evalID, round, j, err)
		}
	}
	// One batch of nG OTs per ordered pair, counted on the sender side so
	// an in-process fleet does not count a pair twice.
	obs.Add(ctx, "ot/derand_batches", int64(p.n-1))
	obs.Add(ctx, "ot/derand_bits", int64(nG*(p.n-1)))

	for j := range ots {
		if j == p.me {
			continue
		}
		peer := p.cfg.Parties[j]
		in, err := p.ep.Recv(ctx, peer, tag)
		if err != nil {
			return fmt.Errorf("gmw: eval %d round %d recv from %d: %w", evalID, round, j, err)
		}
		if len(in) != 2*nb {
			return fmt.Errorf("%w: eval %d round %d: %d bytes from node %d, want %d", ErrBadFrame, evalID, round, len(in), peer, 2*nb)
		}
		rho := ots[j].rho
		ot.ReadWords(tmp, in[:nb], nG) // the peer's d
		for w := range acc {
			acc[w] ^= tmp[w] & ot.WordAt(rho, off+64*w)
		}
		ot.ReadWords(tmp, in[nb:], nG) // the peer's e
		for w := range acc {
			acc[w] ^= xs[w] & tmp[w]
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
