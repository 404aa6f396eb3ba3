package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// TestClusterChaosRecovery is the cluster recovery e2e, on both ways of
// starting the nodes — a real loopback TCP fleet and an in-process one on
// the hub: with recovery enabled, the fleet loses one node right after the
// compute step of iteration 2, re-blocks around the casualty, resumes from
// the last common checkpoint barrier, and the ε=0 result still reproduces
// the plaintext reference exactly. The session must stay usable for a
// second query on the shrunken fleet.
func TestClusterChaosRecovery(t *testing.T) {
	for _, tc := range fleetStarts {
		t.Run(tc.name, func(t *testing.T) { chaosRecovery(t, tc.open) })
	}
}

// fleetStarts are the two ways of starting a fleet in this process: real
// node daemons on loopback TCP, and node goroutines on the hub.
var fleetStarts = []struct {
	name string
	open func(context.Context, Scenario) (*Session, error)
}{
	{"tcp", OpenLoopback},
	{"hub", func(ctx context.Context, sc Scenario) (*Session, error) {
		return OpenHub(ctx, sc)
	}},
}

// TestRecoveryBeforeFirstQuery severs one node's control connection right
// after Open, before any query has run, on both ways of starting the nodes.
// With recovery on, the first query meets the death like any other: the
// fleet re-blocks around the casualty before dispatching, the query runs
// from initialization on the survivors, and the ε=0 result still
// reproduces the plaintext reference exactly with one recovery counted.
func TestRecoveryBeforeFirstQuery(t *testing.T) {
	for _, tc := range fleetStarts {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
			const victim = network.NodeID(3)
			sc, exact := enChainScenario(t, 6, cfg, 4)
			sc.HeartbeatInterval = 25 * time.Millisecond
			sc.Recover = true
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			defer cancel()
			// An unlucky assignment draw leaves the victim no stand-in
			// (trustedparty.ErrNoReplacement); redraw as chaosRecovery does.
			for attempt := 1; ; attempt++ {
				sess, err := tc.open(ctx, sc)
				if err != nil {
					t.Fatal(err)
				}
				sess.mu.Lock()
				sess.conns[victim].conn.Close()
				sess.mu.Unlock()
				// The coordinator's reader notices the loss on its own; the
				// query goes out once it has, so the death is one the fleet
				// met while idle.
				for len(sess.deathCh) == 0 {
					if ctx.Err() != nil {
						t.Fatal("the severed connection was never noticed")
					}
					time.Sleep(time.Millisecond)
				}
				res, err := sess.Query(ctx, Query{})
				sess.Close() // reports the severed node's exit; not under test
				if err != nil {
					if !strings.Contains(err.Error(), trustedparty.ErrNoReplacement.Error()) || attempt >= 5 {
						t.Fatalf("first query after the death failed: %v", err)
					}
					t.Logf("assignment draw %d left the victim unrecoverable, redrawing: %v", attempt, err)
					continue
				}
				if res.Raw != exact {
					t.Errorf("recovered result %d != reference %d", res.Raw, exact)
				}
				if res.Report.Recoveries != 1 {
					t.Errorf("Recoveries = %d, want 1", res.Report.Recoveries)
				}
				for _, n := range res.Report.NodePhases {
					if n.Node == victim {
						t.Error("report still carries a row from the dead node")
					}
				}
				return
			}
		})
	}
}

func chaosRecovery(t *testing.T, open func(context.Context, Scenario) (*Session, error)) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	const iters = 6
	const victim = network.NodeID(3)
	sc, exact := enChainScenario(t, 6, cfg, iters)
	sc.HeartbeatInterval = 25 * time.Millisecond
	sc.Recover = true
	sc.ChaosNode = victim
	sc.ChaosBarrier = 2

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Each open draws a fresh random block assignment; rarely the draw
	// leaves every survivor a co-member of the victim, recovery correctly
	// refuses (trustedparty.ErrNoReplacement — here flattened into the
	// QueryError cause string), and the fleet fail-stops. This test
	// exercises the recoverable path, so an unlucky draw is redrawn.
	var lb *Session
	var res *Result
	for attempt := 1; ; attempt++ {
		var err error
		lb, err = open(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err = lb.Query(ctx, Query{Iterations: iters})
		if err == nil {
			break
		}
		lb.Close()
		if !strings.Contains(err.Error(), "no surviving node can replace") || attempt >= 5 {
			t.Fatalf("recovered run failed: %v", err)
		}
		t.Logf("assignment draw %d left the victim unrecoverable, redrawing: %v", attempt, err)
	}
	defer lb.Close()
	if ctx.Err() != nil {
		t.Fatal("test deadline expired")
	}
	rep := res.Report
	if res.Raw != exact {
		t.Errorf("recovered result %d != reference %d", res.Raw, exact)
	}
	if rep.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", rep.Recoveries)
	}
	if len(rep.NodePhases) != 5 {
		t.Errorf("got %d node rows, want 5 survivors", len(rep.NodePhases))
	}
	for _, n := range rep.NodePhases {
		if n.Node == victim {
			t.Error("report still carries a row from the dead node")
		}
	}
	if rep.ReplayedBarriers < 1 {
		t.Error("no node reports any replayed barrier")
	}
	var death, reblock, resume bool
	for _, ev := range rep.RecoveryEvents {
		if ev.Kind != "recover" {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "death"):
			death = true
		case strings.HasPrefix(ev.Name, "reblock"):
			reblock = true
		case strings.HasPrefix(ev.Name, "resume"):
			resume = true
		}
	}
	if !death || !reblock || !resume {
		t.Errorf("recovery timeline incomplete (death=%v reblock=%v resume=%v): %+v",
			death, reblock, resume, rep.RecoveryEvents)
	}

	fh := lb.Fleet()
	if fh.Recoveries != 1 {
		t.Errorf("fleet health Recoveries = %d, want 1", fh.Recoveries)
	}
	if len(fh.Dead) != 1 || fh.Dead[0] != victim {
		t.Errorf("fleet health Dead = %v, want [%d]", fh.Dead, victim)
	}
	if len(fh.Nodes) != 5 {
		t.Errorf("fleet health has %d nodes, want 5 survivors", len(fh.Nodes))
	}

	// A second query runs on the recovered fleet (chaos fires only once).
	prog, err := sc.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	const iters2 = 3
	exact2, err := vertex.RunReference(prog, sc.Graph, iters2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := lb.Query(ctx, Query{Iterations: iters2})
	if err != nil {
		t.Fatalf("post-recovery query failed: %v", err)
	}
	if res2.Raw != exact2 {
		t.Errorf("post-recovery result %d != reference %d", res2.Raw, exact2)
	}
	if res2.Report.Recoveries != 0 {
		t.Errorf("post-recovery query reports %d recoveries", res2.Report.Recoveries)
	}
}

// TestRecoveryPausesStallWatchdog pins the watchdog/recovery interaction on
// fabricated heartbeats: the watchdog is silent while a re-blocking is in
// progress, and after it the per-query marks are re-seeded — a resumed
// attempt's step counter restarts from scratch, and without the reset the
// superseded attempt's high-water mark would mask all new progress and
// fire the watchdog spuriously.
func TestRecoveryPausesStallWatchdog(t *testing.T) {
	const window = time.Second
	h := newFleetHealth([]network.NodeID{1, 2})
	h.watch(1, nil)
	base := time.Now()
	h.mu.Lock()
	h.starts[1] = base
	h.mu.Unlock()

	beat := func(id network.NodeID, steps int64, at time.Time) {
		h.observeBeat(id, &beatMsg{
			ID:       id,
			Progress: []queryProgress{{Seq: 1, Phase: "iter/2/compute", Steps: steps}},
		}, at)
	}

	// Attempt 1 runs far ahead, then node 2 dies and the fleet freezes at
	// the recovery barrier.
	beat(1, 40, base)
	beat(2, 40, base)
	h.beginRecovery()
	h.markDead(2)

	// Long past the stall window, the paused watchdog stays silent.
	h.checkStalls(base.Add(3*window), window)
	if got := h.snapshot(base.Add(3 * window)).Stalled; len(got) != 0 {
		t.Fatalf("watchdog flagged a query mid-recovery: %v", got)
	}

	// Recovery completes; the resumed attempt's counter restarts at 1 —
	// far below attempt 1's high-water mark of 40.
	h.endRecovery(base.Add(3 * window))
	beat(1, 1, base.Add(3*window+time.Millisecond))
	h.checkStalls(base.Add(3*window+2*time.Millisecond), window)
	if got := h.snapshot(base.Add(3 * window)).Stalled; len(got) != 0 {
		t.Fatalf("resumed attempt flagged despite fresh progress: %v", got)
	}
	h.mu.Lock()
	pm := h.nodes[1].prog[1]
	steps, changed := pm.steps, pm.changed
	h.mu.Unlock()
	if steps != 1 {
		t.Errorf("mark steps = %d after resumed beat, want 1 (mark was not re-seeded)", steps)
	}
	if !changed.After(base) {
		t.Error("mark change time not advanced by the resumed beat")
	}

	// The dead node is out of the model: it no longer counts as "slowest".
	h.checkStalls(base.Add(6*window), window)
	snap := h.snapshot(base.Add(6 * window))
	if len(snap.Dead) != 1 || snap.Dead[0] != 2 {
		t.Errorf("Dead = %v, want [2]", snap.Dead)
	}
	if snap.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", snap.Recoveries)
	}
}
