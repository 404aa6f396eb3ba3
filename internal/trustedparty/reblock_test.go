package trustedparty

import (
	"testing"

	"dstress/internal/network"
)

// pickReplacement makes the recovery plane's choice over the population
// 1..n and fails the test when the draw left none.
func pickReplacement(t *testing.T, a Assignment, dead network.NodeID, n int) network.NodeID {
	t.Helper()
	ids := make([]network.NodeID, n)
	for i := range ids {
		ids[i] = network.NodeID(i + 1)
	}
	repl, err := PickReplacement(a, dead, ids)
	if err != nil {
		t.Fatal(err)
	}
	return repl
}

func TestReblockSubstitutesAndResigns(t *testing.T) {
	p := testParams()
	// Draw a recoverable assignment, exactly as a recovery-enabled
	// deployment would — an unconstrained draw can (rarely) leave the
	// chosen victim with no viable replacement.
	p.Recoverable = true
	res, regs, _ := runSetup(t, p, 8)
	tp, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Reblock must be run by the TP that signed the original setup; rebuild
	// the scenario with a retained TP.
	res, err = tp.Setup(regs)
	if err != nil {
		t.Fatal(err)
	}
	dead := network.NodeID(3)
	repl := pickReplacement(t, res.Assignment, dead, 8)

	next, err := tp.Reblock(res, regs, dead, repl)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyAssignment(next.VerifyKey, next.Assignment) {
		t.Fatal("re-signed assignment does not verify")
	}
	for id, members := range next.Assignment.Blocks {
		seen := map[network.NodeID]bool{}
		for _, m := range members {
			if m == dead {
				t.Fatalf("dead node %d still in block %d", dead, id)
			}
			if seen[m] {
				t.Fatalf("duplicate member %d in block %d after reblock", m, id)
			}
			seen[m] = true
		}
		if id != dead && members[0] != id {
			t.Fatalf("block %d lost its owner slot: %v", id, members)
		}
	}
	if next.Assignment.Blocks[dead][0] != repl {
		t.Fatalf("replacement %d did not take the owner slot of block %d: %v",
			repl, dead, next.Assignment.Blocks[dead])
	}
	for _, m := range next.Assignment.AggBlock {
		if m == dead {
			t.Fatal("dead node still in aggregation block")
		}
	}
	// Every certificate — copied or re-issued — must verify, and changed
	// blocks' certs must cover the new membership.
	for id, certs := range next.Certs {
		if len(certs) != p.D {
			t.Fatalf("node %d has %d certs, want %d", id, len(certs), p.D)
		}
		for j, c := range certs {
			if !VerifyCert(next.VerifyKey, p.Group, c) {
				t.Fatalf("cert %d of node %d does not verify after reblock", j, id)
			}
			if len(c.Keys) != len(next.Assignment.Blocks[id]) {
				t.Fatalf("cert %d of node %d covers %d members, block has %d",
					j, id, len(c.Keys), len(next.Assignment.Blocks[id]))
			}
		}
	}
	// Re-issued certs for dead's block must match the *registered* keys of
	// the new membership under dead's neighbor keys — that is what lets the
	// replacement decrypt transfers addressed to the adopted vertex.
	var deadReg NodeRegistration
	byID := map[network.NodeID]NodeRegistration{}
	for _, r := range regs {
		byID[r.ID] = r
		if r.ID == dead {
			deadReg = r
		}
	}
	members := next.Assignment.Blocks[dead]
	for j := 0; j < p.D; j++ {
		cert := next.Certs[dead][j]
		for m, member := range members {
			for b := range cert.Keys[m] {
				expect := byID[member].PublicKeys[b].Randomize(deadReg.NeighborKeys[j])
				if !p.Group.Equal(cert.Keys[m][b].H, expect.H) {
					t.Fatalf("cert %d member %d bit %d does not match re-randomized registered key", j, m, b)
				}
			}
		}
	}
}

func TestReblockRejectsCoMember(t *testing.T) {
	p := testParams()
	regs := make([]NodeRegistration, 4)
	for i := range regs {
		var err error
		regs[i], _, err = RegisterNode(p, network.NodeID(i+1))
		if err != nil {
			t.Fatal(err)
		}
	}
	tp, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tp.Setup(regs)
	if err != nil {
		t.Fatal(err)
	}
	// With n=4 and k=2 every block has 3 of 4 nodes, so most pairs are
	// co-members; find one and assert rejection.
	for dead, members := range res.Assignment.Blocks {
		for _, m := range members[1:] {
			if !ReplacementOK(res.Assignment, dead, m) {
				if _, err := tp.Reblock(res, regs, dead, m); err == nil {
					t.Fatalf("Reblock accepted co-member %d as replacement for %d", m, dead)
				}
				return
			}
		}
	}
	t.Skip("no co-member pair found (vanishingly unlikely)")
}

// TestRecoverableSetupSurvivesAnyDeath pins the Recoverable draw: a
// recovery-enabled setup on a fleet where the property is achievable must
// produce an assignment in which every single death leaves a viable
// replacement — this is what keeps the 4-node recovery smoke (and any
// small recovery-enabled deployment) from landing on an unrecoverable
// draw. Repeated draws make a regression to the unconstrained sampler
// show up as a flake-free failure here.
func TestRecoverableSetupSurvivesAnyDeath(t *testing.T) {
	p := Params{Group: tg, K: 1, D: 2, L: 2, Recoverable: true}
	for round := 0; round < 8; round++ {
		res, _, _ := runSetup(t, p, 4)
		ids := []network.NodeID{1, 2, 3, 4}
		if !EveryDeathRecoverable(res.Assignment, ids) {
			t.Fatalf("round %d: recoverable setup drew an assignment with an unrecoverable death: %+v",
				round, res.Assignment.Blocks)
		}
		for _, dead := range ids {
			pickReplacement(t, res.Assignment, dead, 4)
		}
	}
}

// TestEveryDeathRecoverableDetects builds an assignment where one node is
// a co-member of everyone and checks the predicate rejects it.
func TestEveryDeathRecoverableDetects(t *testing.T) {
	ids := []network.NodeID{1, 2, 3, 4}
	a := Assignment{
		Blocks: map[network.NodeID][]network.NodeID{
			1: {1, 2}, 2: {2, 1}, 3: {3, 1}, 4: {4, 1},
		},
		AggBlock: []network.NodeID{1, 2},
	}
	if EveryDeathRecoverable(a, ids) {
		t.Fatal("node 1 shares a block with every other node; predicate should reject")
	}
	b := Assignment{
		Blocks: map[network.NodeID][]network.NodeID{
			1: {1, 2}, 2: {2, 1}, 3: {3, 4}, 4: {4, 3},
		},
		AggBlock: []network.NodeID{1, 2},
	}
	if !EveryDeathRecoverable(b, ids) {
		t.Fatal("paired-up blocks leave a replacement for every death; predicate should accept")
	}
}
