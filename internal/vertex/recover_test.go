package vertex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dstress/internal/network"
	"dstress/internal/secretshare"
	"dstress/internal/trustedparty"
)

func TestSnapshotRoundTrip(t *testing.T) {
	snap := &Snapshot{
		Barrier: 3,
		State:   map[int]uint64{0: 42, 2: 0xdeadbeef, 7: 0},
		Msgs:    map[int][]uint64{0: {1, 2}, 2: {0xffffffffffffffff, 0}, 7: {9, 8}},
	}
	enc := EncodeSnapshot(snap)
	if !bytes.Equal(enc, EncodeSnapshot(snap.Clone())) {
		t.Fatal("encoding is not deterministic")
	}
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Barrier != snap.Barrier || len(dec.State) != len(snap.State) {
		t.Fatalf("decoded %+v, want %+v", dec, snap)
	}
	for v, w := range snap.State {
		if dec.State[v] != w {
			t.Errorf("state[%d] = %d, want %d", v, dec.State[v], w)
		}
		for d, m := range snap.Msgs[v] {
			if dec.Msgs[v][d] != m {
				t.Errorf("msgs[%d][%d] = %d, want %d", v, d, dec.Msgs[v][d], m)
			}
		}
	}

	key, err := NewRecoveryKey()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := EncryptSnapshot(key, enc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, enc[:8]) {
		t.Error("ciphertext leaks plaintext prefix")
	}
	plain, err := DecryptSnapshot(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, enc) {
		t.Fatal("decrypt(encrypt(x)) != x")
	}
	// Tampering and a wrong key must both fail.
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 1
	if _, err := DecryptSnapshot(key, bad); err == nil {
		t.Error("tampered ciphertext accepted")
	}
	key2, _ := NewRecoveryKey()
	if _, err := DecryptSnapshot(key2, sealed); err == nil {
		t.Error("wrong key accepted")
	}
}

// TestReconstructThenReshare pins the recovery share algebra: a replacement
// restores the dead member's share from its checkpoint, and the block then
// re-randomizes with a src==dst reshare under a recovery tag — the XOR
// must still open to the original word while the individual shares change.
func TestReconstructThenReshare(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 5, p)
	rt, err := New(context.Background(), Config{Group: tg, K: 2, OTMode: OTDealer, Recover: true}, p, g)
	if err != nil {
		t.Fatal(err)
	}
	const word = uint64(0x5a)
	k1 := 3
	shares := secretshare.SplitXOR(word, k1, p.StateBits)

	// "Checkpoint" the last member's share through the snapshot codec, as
	// if it had died and its blob were handed to a replacement.
	key, err := NewRecoveryKey()
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Barrier: 0, State: map[int]uint64{0: shares[k1-1]}, Msgs: map[int][]uint64{0: {}}}
	blob, err := EncryptSnapshot(key, EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DecryptSnapshot(key, blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeSnapshot(plain)
	if err != nil {
		t.Fatal(err)
	}
	shares[k1-1] = restored.State[0]

	// Every member of vertex 0's block plays both halves of the reshare on
	// its own engine: all sends first, then all receives.
	members := rt.setup.Assignment.Blocks[g.NodeOf(0)]
	tag := network.Tag("q", 999, "a", 2, "recover", 0, "st")
	engineOf := func(id network.NodeID) *Engine { return rt.engines[int(id)-1] }
	for m, id := range members {
		if err := engineOf(id).reshareSend(shares[m], p.StateBits, m, members, tag); err != nil {
			t.Fatal(err)
		}
	}
	fresh := make([]uint64, k1)
	for m, id := range members {
		if fresh[m], err = engineOf(id).reshareRecv(context.Background(), members, tag); err != nil {
			t.Fatal(err)
		}
	}
	var got uint64
	for _, s := range fresh {
		got ^= s
	}
	if got != word {
		t.Fatalf("reshared XOR = %#x, want %#x", got, word)
	}
	same := true
	for i := range fresh {
		if fresh[i] != shares[i] {
			same = false
		}
	}
	if same {
		t.Error("reshare did not re-randomize any share")
	}
}

// runChaosRecovery stands up a fresh runtime and runs the query, redrawing
// the whole deployment when the random block assignment made the chosen
// victim unrecoverable (every survivor already a co-member — rare but
// possible on tiny fleets, and correctly refused: see
// trustedparty.ErrNoReplacement). The chaos e2e tests exercise the path
// where recovery is possible, so an unlucky draw is re-rolled, not failed.
func runChaosRecovery(t *testing.T, cfg Config, p *Program, g *Graph, iters int) (*Runtime, int64, *Report) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		rt, err := New(context.Background(), cfg, p, g)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := rt.Run(context.Background(), iters)
		if err == nil {
			return rt, got, rep
		}
		if !errors.Is(err, trustedparty.ErrNoReplacement) || attempt >= 5 {
			t.Fatal(err)
		}
		t.Logf("assignment draw %d left the victim unrecoverable, redrawing: %v", attempt, err)
	}
}

// TestChaosRecoveryMatchesReference is the sim recovery e2e, over the whole
// fault space of its small fixture: every victim × every barrier × flat
// and tree aggregation. Whichever node dies wherever in the schedule, the
// run must either re-block, resume, and reproduce the ε=0 reference exactly
// with one recovery counted — or refuse with the typed ErrNoReplacement
// when the drawn assignment left the victim no stand-in. It must never
// hang: every cell runs under a deadline. The deployment must stay usable
// for a subsequent query.
func TestChaosRecoveryMatchesReference(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 6, p)
	const iters = 4
	want, err := RunReference(p, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []struct {
		name  string
		fanIn int
	}{{"flat", 0}, {"tree", 2}} {
		for victim := 1; victim <= g.N(); victim++ {
			for barrier := 0; barrier <= iters; barrier++ {
				t.Run(fmt.Sprintf("%s/victim=%d/barrier=%d", agg.name, victim, barrier), func(t *testing.T) {
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					rt, err := New(ctx, Config{
						Group: tg, K: 1, Alpha: 0.5, OTMode: OTDealer, AggFanIn: agg.fanIn,
						Recover: true,
						Chaos:   &ChaosSpec{Victim: network.NodeID(victim), Barrier: barrier},
					}, p, g)
					if err != nil {
						t.Fatal(err)
					}
					got, rep, err := rt.Run(ctx, iters)
					if errors.Is(err, trustedparty.ErrNoReplacement) {
						return // correctly refused: the draw left no stand-in
					}
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("recovered run = %d, reference = %d", got, want)
					}
					if rep.Recoveries != 1 {
						t.Errorf("Recoveries = %d, want 1", rep.Recoveries)
					}
					// The victim must be out of every block of the committed
					// assignment.
					for id, members := range rt.setup.Assignment.Blocks {
						for _, m := range members {
							if m == network.NodeID(victim) {
								t.Fatalf("victim still a member of block %d", id)
							}
						}
					}
					// A later query runs on the re-blocked deployment (chaos
					// fires only on the first attempt of the first query).
					got2, rep2, err := rt.Run(ctx, 2)
					if err != nil {
						t.Fatal(err)
					}
					if got2 != want2 {
						t.Errorf("post-recovery query = %d, reference = %d", got2, want2)
					}
					if rep2.Recoveries != 0 {
						t.Errorf("post-recovery query reports %d recoveries", rep2.Recoveries)
					}
				})
			}
		}
	}
}

// TestChaosRecoveryIKNP exercises the recovery path with the substrate OT
// mode: the replacement's fresh block memberships must derive new streams
// under the attempt-versioned tags (lazily handshaking any new pairs).
func TestChaosRecoveryIKNP(t *testing.T) {
	if testing.Short() {
		t.Skip("IKNP recovery is slow")
	}
	p := sumProgram()
	g := ringGraph(t, 5, p)
	const iters = 2
	want, err := RunReference(p, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	_, got, rep := runChaosRecovery(t, Config{
		Group: tg, K: 1, OTMode: OTIKNP,
		Recover: true,
		Chaos:   &ChaosSpec{Victim: 2, Barrier: 1},
	}, p, g, iters)
	if got != want {
		t.Errorf("recovered IKNP run = %d, reference = %d", got, want)
	}
	if rep.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", rep.Recoveries)
	}
}
