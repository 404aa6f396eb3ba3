package cluster

import (
	"context"
	"strings"
	"testing"

	"dstress/internal/dp"
	"dstress/internal/finnet"
	"dstress/internal/group"
	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// enChainScenario builds the 4-bank debt chain from the facade tests: bank
// 0's reserves are shocked to near zero, producing a cascading shortfall
// with a known plaintext clearing outcome.
func enChainScenario(t *testing.T, n int, cfg Config, iterations int) (Scenario, int64) {
	t.Helper()
	net := &finnet.ENNetwork{
		N:    n,
		Cash: make([]float64, n),
		Debt: make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		net.Cash[i] = 5
		net.Debt[i] = make([]float64, n)
		if i+1 < n {
			net.Debt[i][i+1] = 50 - 10*float64(i%2)
		}
	}
	net.Cash[0] = 2
	net.ApplyCashShock([]int{0}, 0)

	spec := ProgramSpec{Kind: "en", Width: 32, Unit: 1, GranularityDollars: 1, Leverage: 0.1}
	ccfg := risk.CircuitConfig{Width: spec.Width, Unit: spec.Unit}
	graph, err := risk.ENGraph(net, ccfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := vertex.RunReference(prog, graph, iterations)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Config: cfg, Job: Job{Spec: &spec, Graph: graph, Iterations: iterations}}, exact
}

// runLoopbackCluster runs the scenario's default query on a real-TCP
// cluster of one coordinator plus one full daemon per vertex (registration
// handshake, job download, engine execution, report upload), exactly as
// separate processes would run it, and tears the cluster down.
func runLoopbackCluster(t *testing.T, sc Scenario) *Result {
	t.Helper()
	ctx := context.Background()
	sess, err := OpenLoopback(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(ctx, Query{Iterations: sc.Iterations, Epsilon: sc.Epsilon})
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterExactEN clears a 4-bank Eisenberg–Noe network on a loopback
// TCP cluster with output noise disabled: the opened aggregate must equal
// the plaintext reference bit for bit.
func TestClusterExactEN(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	sc, exact := enChainScenario(t, 4, cfg, risk.RecommendedIterations(4)+2)
	res := runLoopbackCluster(t, sc)
	if res.Raw != exact {
		t.Errorf("cluster result %d != reference %d", res.Raw, exact)
	}
	rows := res.Report.NodePhases
	if len(rows) != 4 {
		t.Errorf("got %d node rows, want 4", len(rows))
	}
	if rep := res.Report; rep.TotalBytes() <= 0 || rep.MaxNodeBytes <= 0 || rep.AvgNodeBytes <= 0 {
		t.Error("traffic counters not populated")
	}
	for i, n := range rows {
		if int(n.Node) != i+1 {
			t.Errorf("Nodes[%d] is node %d, want rows sorted by id", i, n.Node)
		}
		if n.TotalTime() <= 0 || n.Stats.BytesSent <= 0 {
			t.Errorf("node %d row has no phase times or traffic", n.Node)
		}
	}
}

// TestClusterNoisyEN is the acceptance run: 4 node daemons plus a
// coordinator over loopback TCP clear an Eisenberg–Noe network with the
// full protocol stack — IKNP OTs, ElGamal transfers with α-noise, and
// Laplace noise drawn inside the aggregation MPC — and the released total
// must agree with the plaintext reference within the configured noise
// bound.
func TestClusterNoisyEN(t *testing.T) {
	const epsilon = 2.0
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	iters := risk.RecommendedIterations(4) + 2
	sc, exact := enChainScenario(t, 4, cfg, iters)
	sc.Epsilon = epsilon
	released := runLoopbackCluster(t, sc).Raw

	// Each geometric variable the in-MPC sampler draws has
	// len(digits) binary digits, so |noise| < 2^len(digits)·2^Shift is a
	// structural bound, not a tail estimate.
	prog, err := sc.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := vertex.DefaultNoiseSpec(epsilon, prog.Sensitivity, 0)
	bound := (int64(1)<<len(dp.GeometricDigits(spec.Lambda)) - 1) << spec.Shift
	diff := released - exact
	if diff < 0 {
		diff = -diff
	}
	if diff > bound {
		t.Errorf("noisy result %d is %d away from reference %d, beyond noise bound %d",
			released, diff, exact, bound)
	}
	t.Logf("reference %d, released %d (noise %+d, bound ±%d)", exact, released, released-exact, bound)
}

// TestClusterTreeAggregation forces the two-level aggregation tree (§3.6)
// across processes: 5 vertices with AggFanIn 2 produce three leaf groups
// plus the root combine block.
func TestClusterTreeAggregation(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5, AggFanIn: 2}
	sc, exact := enChainScenario(t, 5, cfg, risk.RecommendedIterations(5)+2)
	if got := runLoopbackCluster(t, sc).Raw; got != exact {
		t.Errorf("tree-aggregated result %d != reference %d", got, exact)
	}
}

// TestProgramSpecRegistry covers the spec registry's error path and the
// custom-registration hook.
func TestProgramSpecRegistry(t *testing.T) {
	if _, err := (ProgramSpec{Kind: "nope"}).Build(); err == nil {
		t.Error("unknown kind built successfully")
	}
	RegisterProgram("test-custom", func(s ProgramSpec) (*vertex.Program, error) {
		return risk.ENProgram(risk.CircuitConfig{Width: 32, Unit: 1}, 1, 0.1), nil
	})
	if _, err := (ProgramSpec{Kind: "test-custom"}).Build(); err != nil {
		t.Errorf("custom kind: %v", err)
	}
	found := false
	for _, k := range Kinds() {
		if k == "test-custom" {
			found = true
		}
	}
	if !found {
		t.Errorf("Kinds() = %v, missing test-custom", Kinds())
	}
}

// TestLoopbackNeedsSpec pins the clear refusal of a job that daemons
// cannot build: a compiled program alone cannot cross the control plane.
func TestLoopbackNeedsSpec(t *testing.T) {
	sc, _ := enChainScenario(t, 4, Config{Group: group.ModP256(), K: 1, Alpha: 0.5}, 1)
	prog, err := sc.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc.Program, sc.Spec = prog, nil
	if _, err := OpenLoopback(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "need a Spec") {
		t.Errorf("OpenLoopback of a Spec-less job: %v, want the need-a-Spec refusal", err)
	}
}
