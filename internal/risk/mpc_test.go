package risk_test

import (
	"context"
	"testing"

	"dstress/internal/cluster"
	"dstress/internal/group"
	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// runMPC runs the program's ε=0 query on a simulated deployment of
// two-member blocks and returns its result.
func runMPC(t *testing.T, prog *vertex.Program, g *vertex.Graph, iters int) *cluster.Result {
	t.Helper()
	ctx := context.Background()
	f, err := cluster.OpenHub(ctx, cluster.Scenario{
		Config: cluster.Config{Group: group.ModP256(), K: 1, Alpha: 0.5, OTMode: cluster.OTDealer},
		Job:    cluster.Job{Program: prog, Graph: g, Iterations: iters},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Query(ctx, cluster.Query{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestENEndToEndMPC(t *testing.T) {
	if testing.Short() {
		t.Skip("MPC end-to-end test skipped in -short mode")
	}
	cfg := risk.CircuitConfig{Width: 32, Unit: 1}
	prog := risk.ENProgram(cfg, 1, 0.1)
	g, err := risk.ENGraph(risk.SmallENNet(t), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	wantRaw, err := vertex.RunReference(prog, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	res := runMPC(t, prog, g, iters)
	if res.Raw != wantRaw {
		t.Errorf("MPC TDS raw = %d, reference = %d", res.Raw, wantRaw)
	}
	rep := res.Report
	if rep.UpdateAndGates < 1000 {
		t.Errorf("EN update circuit suspiciously small: %d AND gates", rep.UpdateAndGates)
	}
	t.Logf("EN end-to-end: TDS = %v, update circuit %d ANDs, total %.1f KB/node avg",
		cfg.Decode(res.Raw), rep.UpdateAndGates, rep.AvgNodeBytes/1024)
}

func TestEGJEndToEndMPC(t *testing.T) {
	if testing.Short() {
		t.Skip("MPC end-to-end test skipped in -short mode")
	}
	cfg := risk.CircuitConfig{Width: 32, Unit: 1}
	prog := risk.EGJProgram(cfg, 1, 0.1)
	g, err := risk.EGJGraph(risk.SmallEGJNet(t), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	wantRaw, err := vertex.RunReference(prog, g, iters)
	if err != nil {
		t.Fatal(err)
	}
	if res := runMPC(t, prog, g, iters); res.Raw != wantRaw {
		t.Errorf("MPC TDS raw = %d, reference = %d", res.Raw, wantRaw)
	}
}
