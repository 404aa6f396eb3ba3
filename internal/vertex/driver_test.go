package vertex_test

// End-to-end runs of the engine through its driver: every query here is
// dispatched, folded and (under chaos) recovered by internal/cluster's
// coordinator, with the nodes running as goroutines on the in-process hub
// and speaking the real control-plane codec over in-memory pipes.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dstress/internal/cluster"
	"dstress/internal/dp"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// hubScenario is a test deployment over the mod-p group with blocks of k+1.
func hubScenario(g *vertex.Graph, k int, alpha float64) cluster.Scenario {
	return cluster.Scenario{
		Config: cluster.Config{Group: group.ModP256(), K: k, Alpha: alpha},
		Job:    cluster.Job{Graph: g},
	}
}

// openHub stands a simulated deployment of p up for the rest of the test.
func openHub(t *testing.T, ctx context.Context, sc cluster.Scenario, p *vertex.Program, mode cluster.OTMode) *cluster.Session {
	t.Helper()
	sc.Program, sc.OTMode = p, mode
	sess, err := cluster.OpenHub(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// runHub runs one query on a fresh simulated deployment.
func runHub(t *testing.T, sc cluster.Scenario, p *vertex.Program, mode cluster.OTMode, iters int, epsilon float64) *cluster.Result {
	t.Helper()
	ctx := context.Background()
	res, err := openHub(t, ctx, sc, p, mode).Query(ctx, cluster.Query{Iterations: iters, Epsilon: epsilon})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRuntimeMatchesReference(t *testing.T) {
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 5, p)
	want, err := vertex.RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := runHub(t, hubScenario(g, 2, 0.5), p, cluster.OTDealer, 2, 0)
	if res.Raw != want {
		t.Errorf("MPC run = %d, reference = %d", res.Raw, want)
	}
	rep := res.Report
	if rep.Iterations != 2 {
		t.Errorf("report iterations = %d", rep.Iterations)
	}
	if rep.TotalBytes() <= 0 {
		t.Error("no traffic recorded")
	}
	if rep.ComputeTime <= 0 || rep.CommTime <= 0 || rep.AggTime <= 0 {
		t.Errorf("phases not timed: %+v", rep)
	}
	if rep.UpdateAndGates <= 0 || rep.AggAndGates < 0 {
		t.Error("circuit sizes not reported")
	}
	// The phase table is folded from one row per node, sorted by id.
	if len(rep.NodePhases) != g.N() || !slices.IsSortedFunc(rep.NodePhases, func(a, b vertex.NodeResult) int { return int(a.Node - b.Node) }) {
		t.Errorf("report rows %d, want %d sorted by node id", len(rep.NodePhases), g.N())
	}
}

func TestRuntimeNoTransferNoise(t *testing.T) {
	// Alpha = 0 (strawman #3 communication) must still be correct.
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 4, p)
	want, err := vertex.RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := runHub(t, hubScenario(g, 1, 0), p, cluster.OTDealer, 1, 0).Raw; got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

func TestRuntimeWithOutputNoise(t *testing.T) {
	// With Epsilon > 0 the result is the exact aggregate plus discrete
	// Laplace noise; check it stays within a generous tail bound and that
	// across repeated aggregations the values differ (noise is live).
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 4, p)
	exact, err := vertex.RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1.0
	seen := map[int64]bool{}
	for trial := 0; trial < 3; trial++ {
		got := runHub(t, hubScenario(g, 1, 0.5), p, cluster.OTDealer, 1, eps).Raw
		diff := float64(got - exact)
		// Scale is Sensitivity/eps = 1; |noise| > 40 has probability < 1e-17.
		if math.Abs(diff) > 40 {
			t.Errorf("trial %d: noise %v implausibly large", trial, diff)
		}
		seen[got] = true
	}
	// All three trials returning the exact value is possible but ~1/8³
	// likely if noise were working; flag it only when the noise circuit is
	// provably disabled.
	if len(seen) == 1 && seen[exact] && !vertex.DefaultNoiseSpec(eps, p.Sensitivity, 0).Enabled() {
		t.Error("noise spec disabled despite Epsilon > 0")
	}
}

func TestRuntimeIKNP(t *testing.T) {
	// Small end-to-end run over the real OT stack.
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 3, p)
	want, err := vertex.RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := runHub(t, hubScenario(g, 1, 0.5), p, cluster.OTIKNP, 1, 0).Raw; got != want {
		t.Errorf("IKNP run = %d, reference = %d", got, want)
	}
}

func TestRuntimeValidation(t *testing.T) {
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 3, p)
	ctx := context.Background()
	noGroup := hubScenario(g, 1, 0)
	noGroup.Program, noGroup.Group = p, nil
	if _, err := cluster.OpenHub(ctx, noGroup); err == nil {
		t.Error("missing group accepted")
	}
	tooFew := hubScenario(g, 5, 0)
	tooFew.Program = p
	if _, err := cluster.OpenHub(ctx, tooFew); err == nil {
		t.Error("K+1 > N accepted")
	}
	badOT := hubScenario(g, 1, 0)
	badOT.Program, badOT.OTMode = p, cluster.OTMode(9)
	if _, err := cluster.OpenHub(ctx, badOT); err == nil {
		t.Error("unknown OT mode accepted")
	}
}

// treeScenario is hubScenario with the §3.6 aggregation tree.
func treeScenario(g *vertex.Graph, alpha float64, fanIn int) cluster.Scenario {
	sc := hubScenario(g, 1, alpha)
	sc.AggFanIn = fanIn
	return sc
}

func TestHierarchicalAggregationMatchesFlat(t *testing.T) {
	// §3.6's aggregation tree must produce the same (un-noised) aggregate
	// as the single aggregation block.
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 9, p)
	want, err := vertex.RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := runHub(t, treeScenario(g, 0.5, 3), p, cluster.OTDealer, 1, 0).Raw; got != want {
		t.Errorf("tree aggregation = %d, reference = %d", got, want)
	}
}

func TestHierarchicalAggregationUnevenGroups(t *testing.T) {
	// N not divisible by the fan-in: the last group is smaller.
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 7, p)
	want, err := vertex.RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := runHub(t, treeScenario(g, 0, 3), p, cluster.OTDealer, 1, 0).Raw; got != want {
		t.Errorf("uneven tree aggregation = %d, reference = %d", got, want)
	}
}

func TestHierarchicalAggregationWithNoise(t *testing.T) {
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 6, p)
	exact, err := vertex.RunReference(p, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := runHub(t, treeScenario(g, 0.5, 2), p, cluster.OTDealer, 1, 1.0).Raw
	if diff := got - exact; diff > 40 || diff < -40 {
		t.Errorf("tree noise %d implausibly large", diff)
	}
}

// TestRunCancellation cancels a simulated run mid-flight: Run must return
// the context error promptly (every blocked hub Recv is context-aware)
// instead of deadlocking the protocol goroutines.
func TestRunCancellation(t *testing.T) {
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 3, p)
	sess := openHub(t, context.Background(), hubScenario(g, 1, 0.5), p, cluster.OTDealer)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sess.Query(ctx, cluster.Query{Iterations: 500}) // far longer than the cancel delay
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled run reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled run returned %v, want a context.Canceled chain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("canceled run did not return within 15s")
	}
}

// TestSessionQueriesMatchReference drives three queries with distinct
// epsilons through one standing deployment: the ε = 0 queries must
// reproduce the reference exactly, and the noised query must stay within
// the sampler's structural bound — multi-query reuse may not corrupt the
// share state between queries.
func TestSessionQueriesMatchReference(t *testing.T) {
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 4, p)
	want, err := vertex.RunReference(p, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := openHub(t, ctx, hubScenario(g, 1, 0.5), p, cluster.OTDealer)
	for q := 1; q <= 2; q++ {
		res, err := sess.Query(ctx, cluster.Query{Iterations: 2})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if res.Raw != want {
			t.Errorf("query %d = %d, want %d", q, res.Raw, want)
		}
	}
	const eps = 1.0
	res, err := sess.Query(ctx, cluster.Query{Iterations: 2, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Each geometric variable has len(digits) binary digits, so
	// |G1 − G2| < 2^len(digits): a structural bound, not a tail estimate.
	spec := vertex.DefaultNoiseSpec(eps, p.Sensitivity, 0)
	bound := (int64(1)<<len(dp.GeometricDigits(spec.Lambda)) - 1) << spec.Shift
	if diff := res.Raw - want; diff < -bound || diff > bound {
		t.Errorf("noised query %d is beyond the structural bound ±%d of %d", res.Raw, bound, want)
	}
}

// chaosScenario arms recovery and kills victim right after the compute
// step of iteration barrier of the first query. The fast heartbeat lets
// the post-mortem settle in 150ms.
func chaosScenario(sc cluster.Scenario, victim, barrier int) cluster.Scenario {
	sc.Recover = true
	sc.ChaosNode, sc.ChaosBarrier = network.NodeID(victim), barrier
	sc.HeartbeatInterval = 25 * time.Millisecond
	return sc
}

// unrecoverable reports whether err is recovery's typed refusal: the drawn
// assignment left every survivor a co-member of the victim
// (trustedparty.ErrNoReplacement, carried in the *QueryError's cause).
func unrecoverable(err error) bool {
	return err != nil && strings.Contains(err.Error(), trustedparty.ErrNoReplacement.Error())
}

// TestChaosRecoveryMatchesReference is the recovery e2e over the whole
// fault space of its small fixture: every victim × every barrier × flat
// and tree aggregation. Whichever node dies wherever in the schedule, the
// driver must either re-block, resume, and reproduce the ε=0 reference
// exactly with one recovery counted — or refuse with the typed
// ErrNoReplacement when the drawn assignment left the victim no stand-in.
// It must never hang: every cell runs under a deadline. The deployment must
// stay usable for a subsequent query.
func TestChaosRecoveryMatchesReference(t *testing.T) {
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 6, p)
	const iters = 4
	want, err := vertex.RunReference(p, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := vertex.RunReference(p, g, 2)
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
					// Most of a cell is the post-mortem's settle wait, so
					// cells overlap well.
					t.Parallel()
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					sess := openHub(t, ctx, chaosScenario(treeScenario(g, 0.5, agg.fanIn), victim, barrier), p, cluster.OTDealer)
					res, err := sess.Query(ctx, cluster.Query{Iterations: iters})
					if unrecoverable(err) {
						return // correctly refused: the draw left no stand-in
					}
					if err != nil {
						t.Fatal(err)
					}
					if res.Raw != want {
						t.Errorf("recovered run = %d, reference = %d", res.Raw, want)
					}
					if res.Report.Recoveries != 1 {
						t.Errorf("Recoveries = %d, want 1", res.Report.Recoveries)
					}
					// The victim is out of the fleet: it reports no row, and the
					// health plane lists it as the one casualty.
					for _, n := range res.Report.NodePhases {
						if n.Node == network.NodeID(victim) {
							t.Fatal("report still carries a row from the victim")
						}
					}
					if dead := sess.Fleet().Dead; len(dead) != 1 || dead[0] != network.NodeID(victim) {
						t.Errorf("fleet health Dead = %v, want [%d]", dead, victim)
					}
					// A later query runs on the re-blocked deployment (chaos
					// fires only on the first attempt of the first query).
					res2, err := sess.Query(ctx, cluster.Query{Iterations: 2})
					if err != nil {
						t.Fatal(err)
					}
					if res2.Raw != want2 {
						t.Errorf("post-recovery query = %d, reference = %d", res2.Raw, want2)
					}
					if res2.Report.Recoveries != 0 {
						t.Errorf("post-recovery query reports %d recoveries", res2.Report.Recoveries)
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
	p := vertex.SumProgram()
	g := vertex.RingGraph(t, 5, p)
	const iters = 2
	want, err := vertex.RunReference(p, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sc := chaosScenario(hubScenario(g, 1, 0), 2, 1)
	// An unlucky draw leaves the victim no stand-in; redraw the deployment.
	for attempt := 1; ; attempt++ {
		res, err := openHub(t, ctx, sc, p, cluster.OTIKNP).Query(ctx, cluster.Query{Iterations: iters})
		if unrecoverable(err) && attempt < 5 {
			t.Logf("assignment draw %d left the victim unrecoverable, redrawing: %v", attempt, err)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Raw != want {
			t.Errorf("recovered IKNP run = %d, reference = %d", res.Raw, want)
		}
		if res.Report.Recoveries != 1 {
			t.Errorf("Recoveries = %d, want 1", res.Report.Recoveries)
		}
		return
	}
}
