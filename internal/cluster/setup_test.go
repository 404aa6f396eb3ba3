package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/risk"
	"dstress/internal/transfer"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// realSetup runs the trusted party's setup over four freshly registered
// nodes and returns the publication as Open marshals it for node daemons.
func realSetup(tb testing.TB) (group.Group, trustedparty.WireSetup) {
	tb.Helper()
	g := group.ModP256()
	p := trustedparty.Params{Group: g, K: 1, D: 2, L: 32}
	tp, err := trustedparty.New(p)
	if err != nil {
		tb.Fatal(err)
	}
	var regs []trustedparty.NodeRegistration
	for id := network.NodeID(1); id <= 4; id++ {
		reg, _, err := trustedparty.RegisterNode(p, id)
		if err != nil {
			tb.Fatal(err)
		}
		regs = append(regs, reg)
	}
	setup, err := tp.Setup(regs)
	if err != nil {
		tb.Fatal(err)
	}
	return g, trustedparty.MarshalSetup(g, setup)
}

// flipped returns a copy of b with one bit of its middle byte inverted.
func flipped(b []byte) []byte {
	out := slices.Clone(b)
	out[len(out)/2] ^= 1
	return out
}

// TestVerifiedSetupRejectsTampering pins the check every daemon runs on the
// trusted party's publication before building its engine: a genuine
// MarshalSetup output is accepted, and one flipped byte in a
// block-certificate signature, or in the assignment signature, is refused.
func TestVerifiedSetupRejectsTampering(t *testing.T) {
	g, w := realSetup(t)
	if _, err := verifiedSetup(g, w); err != nil {
		t.Fatalf("genuine setup refused: %v", err)
	}

	badCert := w
	badCert.Certs = maps.Clone(w.Certs)
	var id network.NodeID
	for c := range w.Certs {
		if id == 0 || c < id {
			id = c
		}
	}
	certs := slices.Clone(w.Certs[id])
	certs[0].Sig = flipped(certs[0].Sig)
	badCert.Certs[id] = certs
	if _, err := verifiedSetup(g, badCert); err == nil {
		t.Errorf("setup with a tampered certificate signature (node %d) accepted", id)
	}

	badAssign := w
	badAssign.AssignmentSig = flipped(w.AssignmentSig)
	if _, err := verifiedSetup(g, badAssign); err == nil {
		t.Error("setup with a tampered assignment signature accepted")
	}

	// The tampered copies shared nothing with the genuine one.
	if _, err := verifiedSetup(g, w); err != nil {
		t.Fatalf("genuine setup refused after tampering with copies: %v", err)
	}
}

// hugeTableAlpha is a transfer-noise parameter whose lookup table, at
// K = 1, would hold 16,777,219 entries.
const hugeTableAlpha = 0.99999

func TestSetupRefusesHugeTable(t *testing.T) {
	// A setup whose α demands a lookup table above the bound is refused
	// with the typed error, on the node building from it and on the
	// coordinator opening it, before either builds anything.
	g, w := realSetup(t)
	pm := paramsMsg{Group: g.Name(), K: 1, D: 2, L: 32}
	sm := setupMsg{
		Alpha:     hugeTableAlpha,
		Prog:      ProgramSpec{Kind: "en", Width: 32, Unit: 1, GranularityDollars: 1, Leverage: 0.1},
		Out:       [][]int{{1}, {2}, {3}, {}},
		Directory: map[network.NodeID]string{1: "127.0.0.1:1", 2: "127.0.0.1:2", 3: "127.0.0.1:3", 4: "127.0.0.1:4"},
		Setup:     w,
	}
	var te *transfer.TableSizeError
	if _, _, err := nodeDeployment(g, pm, sm); !errors.As(err, &te) {
		t.Fatalf("node: α=%v setup returned %v, want *transfer.TableSizeError", hugeTableAlpha, err)
	}
	if te.Entries != 16_777_219 {
		t.Errorf("node: refusal names %d entries, want 16,777,219", te.Entries)
	}
	sc, _ := enChainScenario(t, 4, Config{Group: group.ModP256(), K: 1, Alpha: hugeTableAlpha}, 1)
	if _, err := NewCoordinator("127.0.0.1:0", sc); !errors.As(err, &te) {
		t.Errorf("coordinator: α=%v returned %v, want *transfer.TableSizeError", hugeTableAlpha, err)
	}
	if _, err := OpenHub(context.Background(), sc); !errors.As(err, &te) {
		t.Errorf("hub: α=%v returned %v, want *transfer.TableSizeError", hugeTableAlpha, err)
	}
}

// FuzzSetupMsg feeds arbitrary bytes through a daemon's whole build before
// any transport is touched: gob-decode a setupMsg, then nodeDeployment —
// compile the spec, check it against the registration, rebuild the
// topology, verify the trusted party's publication, build the deployment.
// Whatever arrives, the build returns an error or a deployment whose
// setup's signatures check — it never panics.
func FuzzSetupMsg(f *testing.F) {
	g, w := realSetup(f)
	pm := paramsMsg{Group: g.Name(), K: 1, D: 2, L: 32}
	seed := setupMsg{
		Alpha:     0.5,
		Prog:      ProgramSpec{Kind: "en", Width: 32, Unit: 1, GranularityDollars: 1, Leverage: 0.1},
		Out:       [][]int{{1}, {2}, {3}, {}},
		Directory: map[network.NodeID]string{1: "127.0.0.1:1", 2: "127.0.0.1:2", 3: "127.0.0.1:3", 4: "127.0.0.1:4"},
		Setup:     w,
	}
	if _, _, err := nodeDeployment(g, pm, seed); err != nil {
		f.Fatalf("the seed setup does not build: %v", err)
	}
	for _, alpha := range []float64{seed.Alpha, hugeTableAlpha} {
		sm := seed
		sm.Alpha = alpha
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(sm); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sm setupMsg
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sm); err != nil {
			return
		}
		dep, setup, err := nodeDeployment(g, pm, sm)
		if err != nil {
			return
		}
		if dep == nil {
			t.Fatal("nodeDeployment returned neither a deployment nor an error")
		}
		if !trustedparty.VerifyAssignment(setup.VerifyKey, setup.Assignment) {
			t.Fatal("nodeDeployment accepted an assignment whose signature does not check")
		}
	})
}

// TestSetupMismatchFailsNode pins the check a node daemon makes of its
// build against its registration: when the spec compiles, on the nodes, to
// a message width other than the L the coordinator registered them under,
// every node refuses its setup with a *SetupMismatchError before it builds
// an engine, and the first query fails with a *QueryError instead of
// running on mismatched parameters.
func TestSetupMismatchFailsNode(t *testing.T) {
	var builds atomic.Int32
	RegisterProgram("test-node-build-narrower", func(ProgramSpec) (*vertex.Program, error) {
		width := 32
		if builds.Add(1) > 1 { // the coordinator builds first, then the nodes
			width = 24
		}
		return risk.ENProgram(risk.CircuitConfig{Width: width, Unit: 1}, 1, 0.1), nil
	})
	sc, _ := enChainScenario(t, 4, Config{Group: group.ModP256(), K: 1, Alpha: 0.5}, 1)
	sc.Spec.Kind = "test-node-build-narrower"
	sc.HeartbeatInterval = 25 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sess, err := OpenLoopback(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Query(ctx, Query{})
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("query on a fleet whose nodes refused their setup returned %v, want a *QueryError", err)
	}
	var mm *SetupMismatchError
	if closeErr := sess.Close(); !errors.As(closeErr, &mm) {
		t.Fatalf("Close reported %v, want a node's *SetupMismatchError", closeErr)
	}
	if mm.L != 32 || mm.MsgBits != 24 {
		t.Errorf("mismatch reports L = %d, MsgBits = %d; want 32, 24", mm.L, mm.MsgBits)
	}
}

// TestSetupFailureFailsNextQuery pins what a node that cannot build its
// engine from the setup Open handed it does to the session: it exits, and
// the next query fails with a *QueryError naming it instead of hanging.
// The program family here compiles for the coordinator and for all nodes
// but one, whose build fails at the point where a setup that fails
// verification would.
func TestSetupFailureFailsNextQuery(t *testing.T) {
	var builds atomic.Int32
	RegisterProgram("test-second-build-fails", func(ProgramSpec) (*vertex.Program, error) {
		if builds.Add(1) == 2 {
			return nil, errors.New("refusing this build")
		}
		return risk.ENProgram(risk.CircuitConfig{Width: 32, Unit: 1}, 1, 0.1), nil
	})
	sc, _ := enChainScenario(t, 4, Config{Group: group.ModP256(), K: 1, Alpha: 0.5}, 1)
	sc.Spec.Kind = "test-second-build-fails"
	sc.HeartbeatInterval = 25 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sess, err := OpenLoopback(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Query(ctx, Query{})
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("query on a fleet with a failed node returned %v, want a *QueryError", err)
	}
	// The failed node's own exit error names it, and so must the query's.
	closeErr := sess.Close()
	if closeErr == nil || !strings.Contains(closeErr.Error(), "refusing this build") {
		t.Fatalf("Close reported %v, want the failed node's build error", closeErr)
	}
	if !strings.Contains(closeErr.Error(), fmt.Sprintf("node %d:", qe.Node)) {
		t.Errorf("query error names node %d, but the node that failed reported: %v", qe.Node, closeErr)
	}
}
