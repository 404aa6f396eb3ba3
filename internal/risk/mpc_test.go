package risk_test

import (
	"context"
	"testing"

	"dstress/internal/cluster"
	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// runMPC runs the program's ε=0 query on a simulated deployment of
// two-member blocks and returns the driver's summary.
func runMPC(t *testing.T, prog *vertex.Program, g *vertex.Graph, iters int) *cluster.Summary {
	t.Helper()
	ctx := context.Background()
	sc := cluster.Scenario{Cfg: cluster.ConfigWire{Group: "modp256", K: 1, Alpha: 0.5}, Graph: g, Iterations: iters}
	f, err := cluster.OpenHub(ctx, sc, prog, cluster.OTDealer)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := f.Run(ctx, cluster.Query{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	return sum
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
	sum := runMPC(t, prog, g, iters)
	if sum.Result != wantRaw {
		t.Errorf("MPC TDS raw = %d, reference = %d", sum.Result, wantRaw)
	}
	rep := sum.Report
	if rep.UpdateAndGates < 1000 {
		t.Errorf("EN update circuit suspiciously small: %d AND gates", rep.UpdateAndGates)
	}
	t.Logf("EN end-to-end: TDS = %v, update circuit %d ANDs, total %.1f KB/node avg",
		cfg.Decode(sum.Result), rep.UpdateAndGates, rep.AvgNodeBytes/1024)
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
	if sum := runMPC(t, prog, g, iters); sum.Result != wantRaw {
		t.Errorf("MPC TDS raw = %d, reference = %d", sum.Result, wantRaw)
	}
}
