package vertex

import (
	"bytes"
	"context"
	"testing"

	"dstress/internal/network"
	"dstress/internal/secretshare"
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
	f := newTestFleet(t, Config{Group: tg, K: 2, Recover: true}, p, g, false)
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
	members := f.setup.Assignment.Blocks[g.NodeOf(0)]
	tag := network.Tag("q", 999, "a", 2, "recover", 0, "st")
	engineOf := func(id network.NodeID) *Engine { return f.engines[int(id)-1] }
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
