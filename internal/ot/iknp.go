package ot

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"dstress/internal/network"
)

// IKNP OT extension (Ishai, Kilian, Nissim, Petrank): stretches λ = 128
// base OTs into an unbounded stream of random bit-OTs using a pseudorandom
// generator (AES-CTR) and a fixed-key AES correlation-robust hash. This is
// the optimization the paper credits for GMW's low bandwidth (§5.3,
// citations [41, 46]).
//
// Role reversal is inherent to IKNP: the party who will *receive* the
// extended OTs acts as the *sender* of the base OTs, and vice versa.
//
// Per extension of m OTs (m a multiple of 64):
//
//	receiver: ρ ← {0,1}^m; for each j < λ:
//	            t_j = PRG(k0_j, m),  u_j = t_j ⊕ PRG(k1_j, m) ⊕ ρ   → sender
//	          row i of T gives wρ_i = lsb(H(i, t_i))
//	sender:   q_j = PRG(k_{s_j}, m) ⊕ s_j·u_j; row i of Q gives
//	            w0_i = lsb(H(i, q_i)),  w1_i = lsb(H(i, q_i ⊕ s))
//
// Since q_i = t_i ⊕ ρ_i·s, the receiver's pad equals w0 when ρ_i = 0 and w1
// when ρ_i = 1, which is exactly a random OT. The index i is the OT's
// position in the stream, and each PRG is one AES-CTR stream per column, so
// an OT's pads depend on the seeds, its choice bit and its index alone —
// not on how the stream was cut into extensions.
//
// A draw extends exactly its shortfall, rounded up to a whole word: the
// gmw evaluator draws a circuit's AND count once per evaluation, so each
// stream sends one blob per evaluation and carries fewer than 64 OTs over
// to the next.
//
// The base-OT bootstrap lives in the pairwise Substrate: it runs once per
// node pair and hands per-session PRF-derived seeds to
// newIKNPSenderFromSeeds/newIKNPReceiverFromSeeds.

// Lambda is the IKNP security parameter (number of base OTs).
const Lambda = 128

// rowBytes is one row of the transposed matrix: an OT's λ column bits.
const rowBytes = Lambda / 8

// stripBytes is one strip of 64 transposed rows, the unit the correlation-
// robust hash runs over and the width of one packed output word.
const stripBytes = 64 * rowBytes

// hashKey is the fixed AES key of the correlation-robust hash. Any fixed
// public constant works; this spells "dstress-iknp-crh".
var hashKey = []byte("dstress-iknp-crh")

func newCRH() cipher.Block {
	b, err := aes.NewCipher(hashKey)
	if err != nil {
		panic(err) //dstress:panic-ok — fixed 16-byte key, cannot fail
	}
	return b
}

// crhStrip hashes the 64 rows of one transposed strip, row i under OT index
// ctr+i: bit i of h0 is lsb(AES_k(x) ⊕ x) for x = row_i ⊕ (ctr+i), and, if
// s is non-nil, bit i of h1 is the same hash of x ⊕ s (the sender's w1). It
// overwrites rows with the hash inputs, and out (one AES block) is the
// caller's scratch: handing cipher.Block a stack array would move it to the
// heap on every call.
func crhStrip(crh cipher.Block, out, rows []byte, ctr uint64, s []byte) (h0, h1 uint64) {
	le := binary.LittleEndian
	for i := 0; i < 64; i++ {
		x := rows[i*rowBytes : (i+1)*rowBytes]
		le.PutUint64(x, le.Uint64(x)^(ctr+uint64(i)))
		crh.Encrypt(out, x)
		h0 |= uint64((out[0]^x[0])&1) << i
		if s != nil {
			le.PutUint64(x, le.Uint64(x)^le.Uint64(s))
			le.PutUint64(x[8:], le.Uint64(x[8:])^le.Uint64(s[8:]))
			crh.Encrypt(out, x)
			h1 |= uint64((out[0]^x[0])&1) << i
		}
	}
	return h0, h1
}

// newPRG returns AES-CTR under seed as a deterministic byte stream; XORing
// it into zeroed bytes reads it.
func newPRG(seed []byte) cipher.Stream {
	block, err := aes.NewCipher(seed[:SeedLen])
	if err != nil {
		panic(err) //dstress:panic-ok — SeedLen is a valid AES key size, cannot fail
	}
	return cipher.NewCTR(block, make([]byte, aes.BlockSize))
}

// transpose64 transposes a 64×64 bit matrix in place, row r in word r
// with column c at bit c, by swapping ever smaller off-diagonal blocks
// (Hacker's Delight §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			l := (k + j) & 63 // = k+j; the mask lets the compiler drop the bounds check
			t := (a[k]>>j ^ a[l]) & m
			a[l] ^= t
			a[k] ^= t << j
		}
	}
}

// transposePacked writes strip b of the matrix whose λ columns of mBytes
// bytes each lie back to back in cols — bit i of column j is OT i's bit j —
// as the 64 rows of OTs 64b…64b+63, λ/8 bytes each, into rows: 64 columns'
// strip words at a time, as one 64×64 block.
func transposePacked(rows, cols []byte, mBytes, b int) {
	var a [64]uint64
	for g := 0; g < Lambda/64; g++ {
		for k := range a {
			a[k] = binary.LittleEndian.Uint64(cols[(64*g+k)*mBytes+8*b:])
		}
		transpose64(&a)
		for i, x := range a {
			binary.LittleEndian.PutUint64(rows[i*rowBytes+8*g:], x)
		}
	}
}

// carry holds the OTs a stream extended past its last draw — fewer than
// 64, since an extension covers a draw's shortfall rounded up to a word —
// as the low n bits of its two packed outputs: (w0, w1) on the sender,
// (ρ, wρ) on the receiver.
type carry struct {
	a, b uint64
	n    int
}

// draw returns n OTs' two outputs as packed words with zeroed tails: the
// carried OTs first, then fresh ones. ext(a, b, off, m) must OR m fresh
// OTs' outputs, m a multiple of 64, into bits [off, off+m) of a and b.
func (c *carry) draw(n int, ext func(a, b []uint64, off, m int) error) ([]uint64, []uint64, error) {
	m := 0
	if n > c.n {
		m = (n - c.n + 63) &^ 63
	}
	total := c.n + m
	a, b := make([]uint64, Words(total)), make([]uint64, Words(total))
	if c.n > 0 {
		a[0], b[0] = c.a, c.b
	}
	if m > 0 {
		if err := ext(a, b, c.n, m); err != nil {
			return nil, nil, err
		}
	}
	c.n = total - n
	c.a, c.b = 0, 0
	if c.n > 0 {
		c.a, c.b = WordAt(a, n), WordAt(b, n)
	}
	a, b = a[:Words(n)], b[:Words(n)]
	MaskTail(a, n)
	MaskTail(b, n)
	return a, b, nil
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

// IKNPSender produces random pads (w0, w1); it is the *receiver* of the
// base OTs.
type IKNPSender struct {
	ep      network.Transport
	peer    network.NodeID
	tag     string
	sPacked [rowBytes]byte  // λ base-OT choice bits, packed
	prgs    []cipher.Stream // PRG(k_{s_j})
	crh     cipher.Block
	ctr     uint64 // OTs extended so far: the next extension's first index
	left    carry
}

// newIKNPSenderFromSeeds builds the extension over already-established base
// material: sPacked are the λ choice bits, seeds[j] = k_{s_j}.
func newIKNPSenderFromSeeds(ep network.Transport, peer network.NodeID, tag string, sPacked []byte, seeds [][]byte) *IKNPSender {
	s := &IKNPSender{ep: ep, peer: peer, tag: tag, crh: newCRH()}
	copy(s.sPacked[:], sPacked)
	s.prgs = make([]cipher.Stream, Lambda)
	for j := range s.prgs {
		s.prgs[j] = newPRG(seeds[j])
	}
	return s
}

// RandomPadWords implements RandomOTSender: n random pad pairs as packed
// words with zeroed tails.
func (s *IKNPSender) RandomPadWords(ctx context.Context, n int) ([]uint64, []uint64, error) {
	return s.left.draw(n, func(w0, w1 []uint64, off, m int) error {
		return s.extend(ctx, w0, w1, off, m)
	})
}

// extend receives the blob for the next m OTs and ORs their pads into bits
// [off, off+m) of w0 and w1.
func (s *IKNPSender) extend(ctx context.Context, w0, w1 []uint64, off, m int) error {
	mBytes := m / 8
	q, err := s.ep.Recv(ctx, s.peer, network.Tag(s.tag, "ext", s.ctr))
	if err != nil {
		return err
	}
	if len(q) != Lambda*mBytes {
		return fmt.Errorf("ot: IKNP extension blob has %d bytes, want %d", len(q), Lambda*mBytes)
	}
	// Recv hands the blob over, so Q's columns are built in it:
	// q_j = PRG(k_{s_j}) ⊕ s_j·u_j.
	for j, g := range s.prgs {
		col := q[j*mBytes : (j+1)*mBytes]
		if (s.sPacked[j/8]>>(j%8))&1 == 0 {
			clear(col)
		}
		g.XORKeyStream(col, col)
	}
	scratch := make([]byte, stripBytes+aes.BlockSize)
	rows, out := scratch[:stripBytes], scratch[stripBytes:]
	for b := 0; b < m/64; b++ {
		transposePacked(rows, q, mBytes, b)
		h0, h1 := crhStrip(s.crh, out, rows, s.ctr+uint64(64*b), s.sPacked[:])
		orWordAt(w0, off+64*b, h0)
		orWordAt(w1, off+64*b, h1)
	}
	s.ctr += uint64(m)
	return nil
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

// IKNPReceiver produces random choices (ρ, wρ); it is the *sender* of the
// base OTs.
type IKNPReceiver struct {
	ep    network.Transport
	peer  network.NodeID
	tag   string
	prg0s []cipher.Stream // PRG(k0_j)
	prg1s []cipher.Stream // PRG(k1_j)
	crh   cipher.Block
	ctr   uint64 // OTs extended so far: the next extension's first index
	left  carry
}

// newIKNPReceiverFromSeeds builds the extension over already-established
// base material: the λ seed pairs (k0_j, k1_j).
func newIKNPReceiverFromSeeds(ep network.Transport, peer network.NodeID, tag string, k0, k1 [][]byte) *IKNPReceiver {
	r := &IKNPReceiver{ep: ep, peer: peer, tag: tag, crh: newCRH()}
	r.prg0s = make([]cipher.Stream, Lambda)
	r.prg1s = make([]cipher.Stream, Lambda)
	for j := 0; j < Lambda; j++ {
		r.prg0s[j] = newPRG(k0[j])
		r.prg1s[j] = newPRG(k1[j])
	}
	return r
}

// RandomChoiceWords implements RandomOTReceiver: n random choices and their
// pads as packed words with zeroed tails.
func (r *IKNPReceiver) RandomChoiceWords(ctx context.Context, n int) ([]uint64, []uint64, error) {
	return r.left.draw(n, func(rho, w []uint64, off, m int) error {
		return r.extend(ctx, rho, w, off, m)
	})
}

// extend draws the next m OTs' choices, sends their blob, and ORs choices
// and pads into bits [off, off+m) of rho and w.
func (r *IKNPReceiver) extend(ctx context.Context, rho, w []uint64, off, m int) error {
	mBytes := m / 8
	rhoPacked := make([]byte, mBytes)
	if err := readEntropy(rhoPacked); err != nil {
		return fmt.Errorf("ot: drawing IKNP choice vector: %w", err)
	}
	// T's columns, then the blob of u_j = t_j ⊕ PRG(k1_j) ⊕ ρ.
	tu := make([]byte, 2*Lambda*mBytes)
	t, u := tu[:Lambda*mBytes], tu[Lambda*mBytes:]
	for j := 0; j < Lambda; j++ {
		tc, uc := t[j*mBytes:(j+1)*mBytes], u[j*mBytes:(j+1)*mBytes]
		r.prg0s[j].XORKeyStream(tc, tc)
		for i := range uc {
			uc[i] = tc[i] ^ rhoPacked[i]
		}
		r.prg1s[j].XORKeyStream(uc, uc)
	}
	if err := r.ep.Send(r.peer, network.Tag(r.tag, "ext", r.ctr), u); err != nil {
		return err
	}
	scratch := make([]byte, stripBytes+aes.BlockSize)
	rows, out := scratch[:stripBytes], scratch[stripBytes:]
	for b := 0; b < m/64; b++ {
		transposePacked(rows, t, mBytes, b)
		hw, _ := crhStrip(r.crh, out, rows, r.ctr+uint64(64*b), nil)
		orWordAt(w, off+64*b, hw)
		orWordAt(rho, off+64*b, binary.LittleEndian.Uint64(rhoPacked[8*b:]))
	}
	r.ctr += uint64(m)
	return nil
}
