package vertex

import (
	"context"
	"sync"
	"testing"

	"dstress/internal/gmw"
	"dstress/internal/network"
	"dstress/internal/ot"
	"dstress/internal/trustedparty"
)

// testFleet is one engine per vertex on a hub, with the trusted party run
// in the test: the fixture of the tests that look inside engines. Queries
// through a driver — fan-out, recovery, the health plane — are
// internal/cluster's, and the tests of that path live in driver_test.go.
type testFleet struct {
	dep     *Deployment
	g       *Graph
	setup   *trustedparty.SetupResult
	engines []*Engine
}

// newTestFleet stands the engines up, with IKNP-provisioned OT when iknp is
// set and a shared dealer otherwise.
func newTestFleet(t *testing.T, cfg Config, p *Program, g *Graph, iknp bool) *testFleet {
	t.Helper()
	dep, err := NewDeployment(cfg, p, g)
	if err != nil {
		t.Fatal(err)
	}
	params := trustedparty.Params{Group: cfg.Group, K: cfg.K, D: g.D, L: p.MsgBits, Recoverable: cfg.Recover}
	tp, err := trustedparty.New(params)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]trustedparty.NodeRegistration, g.N())
	secrets := make([]trustedparty.NodeSecrets, g.N())
	for v := range regs {
		if regs[v], secrets[v], err = trustedparty.RegisterNode(params, g.NodeOf(v)); err != nil {
			t.Fatal(err)
		}
	}
	f := &testFleet{dep: dep, g: g}
	if f.setup, err = tp.Setup(regs); err != nil {
		t.Fatal(err)
	}
	hub, broker := network.New(), ot.NewDealerBroker()
	for v := range regs {
		ep := hub.Endpoint(g.NodeOf(v))
		var opt gmw.OTOption = gmw.DealerOT{Broker: broker}
		if iknp {
			opt = gmw.SubstrateOT{Sub: ot.NewSubstrate(cfg.Group, ep)}
		}
		e, err := NewEngine(dep, f.setup, secrets[v], ep, opt)
		if err != nil {
			t.Fatal(err)
		}
		f.engines = append(f.engines, e)
	}
	return f
}

// run runs query seq on every engine at once and folds their rows.
func (f *testFleet) run(t *testing.T, seq, iterations int) (int64, *Report) {
	t.Helper()
	rows := make([]NodeResult, len(f.engines))
	errs := make([]error, len(f.engines))
	var wg sync.WaitGroup
	for i, e := range f.engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Run(context.Background(), Job{
				Seq: seq, Attempt: 1, FromBarrier: -1, Iterations: iterations,
				Inputs: OwnerInputs(f.g, f.setup.Assignment, e.id),
			})
			if res != nil {
				rows[i] = *res
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	result, rep, err := Fold(rows, len(f.setup.Assignment.AggBlock))
	if err != nil {
		t.Fatal(err)
	}
	return result, rep
}

func TestBaseOTHandshakesEqualNodePairs(t *testing.T) {
	// Regression guard for the pairwise OT substrate: a deployment's base-OT
	// handshake count must equal the number of ordered node pairs that share
	// at least one GMW session — independent of how many block sessions each
	// pair co-occurs in (the pre-substrate stack paid 2λ base OTs per pair
	// *per session*).
	p := sumProgram()
	g := ringGraph(t, 6, p) // N=6, K=2 → 7 sessions (6 blocks + agg), heavy pair overlap
	f := newTestFleet(t, Config{Group: tg, K: 2, Alpha: 0.5}, p, g, true)

	// Expected: ordered pairs co-occurring in any block or the agg block.
	type pair [2]int
	coOccur := map[pair]bool{}
	addBlock := func(members []network.NodeID) {
		for _, a := range members {
			for _, b := range members {
				if a != b {
					coOccur[pair{int(a), int(b)}] = true
				}
			}
		}
	}
	sessions := 0
	for _, members := range f.setup.Assignment.Blocks {
		addBlock(members)
		sessions++
	}
	addBlock(f.setup.Assignment.AggBlock)
	sessions++

	// The first query's session joins pay the handshakes; the second reuses
	// the substrate without new ones. Both compute correctly.
	want, err := RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= 2; q++ {
		res, rep := f.run(t, q, 1)
		if res != want {
			t.Errorf("query %d: got %d, want %d", q, res, want)
		}
		if got := rep.BaseOTHandshakes; got != int64(len(coOccur)) {
			t.Fatalf("query %d: deployment ran %d base-OT handshakes, want %d (= ordered co-occurring pairs, over %d sessions)",
				q, got, len(coOccur), sessions)
		}
		if rep.SetupTime <= 0 {
			t.Errorf("query %d: setup time not reported", q)
		}
	}
	// The point of the substrate: strictly fewer handshakes than the
	// per-session bootstrap would have run (each session of k+1 members
	// costs k(k+1) ordered-pair handshakes).
	if perSession := sessions * 3 * 2; len(coOccur) >= perSession { // K+1=3 members → 6 ordered pairs each
		t.Errorf("handshakes %d not below per-session cost %d; substrate not shared", len(coOccur), perSession)
	}
}

// TestRuntimePrecomputedCertsMatchReference forces the certificate-table
// cache on (short runs normally skip it) and checks that a run through the
// precomputed encryption path, with every engine sharing the one cache,
// still reproduces the reference exactly — the cache must not change a
// single group element on the wire.
func TestRuntimePrecomputedCertsMatchReference(t *testing.T) {
	p := sumProgram()
	g := ringGraph(t, 5, p)
	want, err := RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, Config{Group: tg, K: 2, Alpha: 0.5}, p, g, false)
	f.dep.certs.Enable()
	if got, _ := f.run(t, 1, 2); got != want {
		t.Errorf("precomputed-cert run = %d, reference = %d", got, want)
	}
	if f.dep.certs.Len() == 0 {
		t.Error("run did not populate the certificate-table cache")
	}
}
