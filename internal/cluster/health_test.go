package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
)

// TestStallWatchdog drives the watchdog on fabricated heartbeats: a query
// whose slowest node stops advancing trips the stalled flag after the
// window, and a later advance clears it. No phase-string ordering is
// involved — only per-node step counters and their change times.
func TestStallWatchdog(t *testing.T) {
	const window = time.Second
	h := newFleetHealth([]network.NodeID{1, 2})
	h.watch(1, nil)
	base := time.Now()
	h.mu.Lock()
	h.starts[1] = base // pin the dispatch time so the schedule is exact
	h.mu.Unlock()

	beat := func(id network.NodeID, steps int64, phase string, at time.Time) {
		h.observeBeat(id, &beatMsg{
			ID:       id,
			Progress: []queryProgress{{Seq: 1, Phase: phase, Steps: steps}},
		}, at)
	}

	// Both nodes enter init right away.
	beat(1, 1, "phase/init", base)
	beat(2, 1, "phase/init", base)

	// Before the window has elapsed since dispatch, nothing can stall.
	h.checkStalls(base.Add(window/2), window)
	if got := h.snapshot(base.Add(window / 2)).Stalled; len(got) != 0 {
		t.Fatalf("query flagged before the window elapsed: %v", got)
	}

	// Node 1 keeps advancing; node 2 freezes at step 1.
	beat(1, 5, "iter/3/compute", base.Add(window))
	h.checkStalls(base.Add(2*window+time.Millisecond), window)
	snap := h.snapshot(base.Add(2 * window))
	if len(snap.Stalled) != 1 || snap.Stalled[0] != 1 {
		t.Fatalf("stalled = %v, want [1]: the slowest node has not advanced in 2 windows", snap.Stalled)
	}
	if len(snap.InFlight) != 1 || snap.InFlight[0] != 1 {
		t.Fatalf("in-flight = %v, want [1]", snap.InFlight)
	}

	// Node 2 advances: the flag clears on the next tick.
	beat(2, 2, "iter/0/compute", base.Add(2*window+2*time.Millisecond))
	h.checkStalls(base.Add(2*window+3*time.Millisecond), window)
	if got := h.snapshot(base.Add(2 * window)).Stalled; len(got) != 0 {
		t.Fatalf("flag not cleared after the slow node advanced: %v", got)
	}

	// Retiring the query drops all of its state.
	h.unwatch(1)
	snap = h.snapshot(base.Add(3 * window))
	if len(snap.InFlight) != 0 || len(snap.Stalled) != 0 {
		t.Fatalf("unwatch left state behind: inflight=%v stalled=%v", snap.InFlight, snap.Stalled)
	}
}

// TestWatchdogUnstartedNode pins the missing-node rule: a node that has
// never reported the query counts as unstarted, so the query stalls once
// the window passes even though the other nodes are advancing.
func TestWatchdogUnstartedNode(t *testing.T) {
	const window = time.Second
	h := newFleetHealth([]network.NodeID{1, 2})
	h.watch(1, nil)
	base := time.Now()
	h.mu.Lock()
	h.starts[1] = base
	h.mu.Unlock()

	// Only node 1 ever reports.
	h.observeBeat(1, &beatMsg{ID: 1, Progress: []queryProgress{{Seq: 1, Phase: "phase/init", Steps: 3}}}, base.Add(window))
	h.checkStalls(base.Add(2*window), window)
	if got := h.snapshot(base.Add(2 * window)).Stalled; len(got) != 1 {
		t.Fatalf("stalled = %v, want the query flagged: node 2 never started it", got)
	}
}

// TestHeartbeatLoopback runs a real loopback cluster with a fast heartbeat
// and checks the health plane end to end: every node beats, clock offsets
// converge (Synced), runtime stats arrive, and every node's span table lands
// on the caller's trace rebased onto the driver's timeline.
func TestHeartbeatLoopback(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	sc, exact := enChainScenario(t, 4, cfg, 6)
	sc.HeartbeatInterval = 20 * time.Millisecond
	lb, err := OpenLoopback(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	tr := obs.NewTrace(0)
	from := time.Since(tr.Epoch())
	res, err := lb.Query(obs.With(context.Background(), tr), Query{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	to := time.Since(tr.Epoch())
	if res.Raw != exact {
		t.Errorf("cluster result %d != reference %d", res.Raw, exact)
	}

	// Give the fleet a few more beats while idle.
	time.Sleep(100 * time.Millisecond)
	fh := lb.Fleet()
	if len(fh.Nodes) != 4 {
		t.Fatalf("health has %d nodes, want 4", len(fh.Nodes))
	}
	for _, n := range fh.Nodes {
		if n.Beats == 0 {
			t.Errorf("node %d never beat", n.Node)
		}
		if !n.Synced {
			t.Errorf("node %d clock never synced", n.Node)
		}
		if n.RTT <= 0 {
			t.Errorf("node %d has no RTT estimate", n.Node)
		}
		if n.Goroutines <= 0 || n.HeapBytes == 0 {
			t.Errorf("node %d runtime stats missing: goroutines=%d heap=%d",
				n.Node, n.Goroutines, n.HeapBytes)
		}
		if n.BeatAge > time.Second {
			t.Errorf("node %d beat age %v with a 20ms heartbeat", n.Node, n.BeatAge)
		}
	}
	if len(fh.InFlight) != 0 {
		t.Errorf("idle fleet reports in-flight queries: %v", fh.InFlight)
	}

	for _, n := range fh.Nodes {
		// The merge shifts by nodeEpoch − offset − driverEpoch; an offset
		// bigger than the run itself would mean the estimator diverged on
		// loopback, where true offset ≈ 0 and RTT is microseconds.
		if off := n.ClockOffset; off > time.Second || off < -time.Second {
			t.Errorf("node %d loopback clock offset %v is implausible", n.Node, off)
		}
	}
	// Every node's spans were rebased by its job-start epoch: on loopback
	// they land inside the query's own window on the driver's timeline,
	// give or take the offset estimate's error.
	spans := map[int32]int{}
	for _, sp := range tr.Spans() {
		spans[sp.Node]++
		if start, end := time.Duration(sp.Start), time.Duration(sp.Start+sp.Dur); start < from-time.Second || end > to+time.Second {
			t.Errorf("node %d span %s at [%v, %v] outside the query's window [%v, %v]", sp.Node, sp.Name, start, end, from, to)
		}
	}
	for id := int32(1); id <= 4; id++ {
		if spans[id] == 0 {
			t.Errorf("node %d merged no spans into the caller's trace", id)
		}
	}
}

// TestFlightRingKeepsPhases runs a noised query — hundreds of AND rounds
// on every node, the aggregation block's noise sampler alone more than the
// 256-event ring holds — and checks that afterwards each node's flight
// recorder, as mirrored at the coordinator from its heartbeats, still holds
// the phase entries and spans a post-mortem needs: the two counter bumps
// every AND round makes stay out of the ring.
func TestFlightRingKeepsPhases(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	sc, _ := enChainScenario(t, 4, cfg, 1)
	sc.HeartbeatInterval = 20 * time.Millisecond
	sc.Epsilon = 2
	ctx := context.Background()
	sess, err := OpenHub(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tr := obs.NewTrace(0)
	res, err := sess.Query(obs.With(ctx, tr), Query{Iterations: 1, Epsilon: sc.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	// The trace folds the nodes' counters into fleet totals.
	nodes := res.Report.NodePhases
	if rounds := tr.Counters()["gmw/and_rounds"]; rounds <= 256*int64(len(nodes)) {
		t.Fatalf("the fleet ran %d AND rounds over %d nodes; the test needs more per node than the ring holds", rounds, len(nodes))
	}
	// Let a few beats ship the rings' tails to the coordinator.
	time.Sleep(10 * sc.HeartbeatInterval)
	for _, n := range nodes {
		_, _, events := sess.health.failureInfo(n.Node, 0)
		kinds := map[string]int{}
		for _, ev := range events {
			kinds[ev.Kind]++
		}
		if kinds["phase"] == 0 || kinds["span"] == 0 || kinds["counter"] != 0 {
			t.Errorf("node %d flight ring holds %v, want phase entries and spans and no counter bumps", n.Node, kinds)
		}
	}
}

// TestNodeKillProducesQueryError kills one node mid-query on a fleet with
// a fast heartbeat and no recovery, and requires the health plane's
// post-mortem: the error is a *QueryError naming the victim (even though a
// survivor's failure may reach the coordinator first), its last reported
// phase is non-empty, and the flight dump renders as valid JSON identifying
// the same node. On tcp the victim's daemon is canceled from outside while
// the query runs; on the hub the victim dies at a barrier, the way chaos
// kills it.
func TestNodeKillProducesQueryError(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	const victim = network.NodeID(2)
	t.Run("tcp", func(t *testing.T) {
		sc, _ := enChainScenario(t, 4, cfg, 8)
		sc.HeartbeatInterval = 25 * time.Millisecond
		co, err := NewCoordinator("127.0.0.1:0", sc)
		if err != nil {
			t.Fatal(err)
		}
		victimCtx, kill := context.WithCancel(context.Background())
		defer kill()
		exits := make(chan error, 4)
		for id := network.NodeID(1); id <= 4; id++ {
			ctx := context.Background()
			if id == victim {
				ctx = victimCtx
			}
			go func() {
				_, err := RunNode(ctx, NodeOptions{
					ID: id, CoordAddr: co.Addr(), ListenAddr: "127.0.0.1:0",
				})
				exits <- err
			}()
		}

		sess, err := co.Open(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()

		// Kill the victim once the health plane shows the query computing,
		// so the kill lands mid-run however fast the query is.
		var killOnce sync.Once
		onPhase := func(phase string) {
			if strings.HasPrefix(phase, "iter/") {
				killOnce.Do(kill)
			}
		}
		checkQueryError(t, func(ctx context.Context) error {
			_, err := sess.Query(obs.WithProgress(ctx, onPhase), Query{Iterations: 8})
			return err
		}, victim)

		for i := 0; i < 4; i++ {
			select {
			case <-exits:
			case <-time.After(30 * time.Second):
				t.Fatal("a node is still blocked after the fleet died")
			}
		}
	})
	t.Run("hub", func(t *testing.T) {
		sc, _ := enChainScenario(t, 4, cfg, 8)
		sc.HeartbeatInterval = 25 * time.Millisecond
		sc.ChaosNode, sc.ChaosBarrier = victim, 2
		sess, err := OpenHub(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		checkQueryError(t, func(ctx context.Context) error {
			_, err := sess.Query(ctx, Query{Iterations: 8})
			return err
		}, victim)
		closed := make(chan struct{})
		go func() {
			sess.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("a node is still blocked after the fleet died")
		}
	})
}

// checkQueryError runs a query that loses victim and checks the
// post-mortem it fails with.
func checkQueryError(t *testing.T, run func(context.Context) error, victim network.NodeID) {
	t.Helper()
	runCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runErr := run(runCtx)
	if runErr == nil {
		t.Fatal("run succeeded despite a killed node")
	}
	if runCtx.Err() != nil {
		t.Fatal("run only failed because the test deadline expired")
	}
	t.Logf("run failed: %v", runErr)

	var qe *QueryError
	if !errors.As(runErr, &qe) {
		t.Fatalf("error is not a *QueryError: %v", runErr)
	}
	if qe.Node != victim {
		t.Errorf("failure attributed to node %d, want victim %d", qe.Node, victim)
	}
	if qe.LastPhase == "" {
		t.Error("post-mortem has no last phase for the victim")
	}
	if qe.Seq == 0 {
		t.Error("post-mortem has no query seq")
	}

	data, err := qe.Dump()
	if err != nil {
		t.Fatalf("rendering flight dump: %v", err)
	}
	var dump struct {
		Query     int    `json:"query"`
		Node      int    `json:"node"`
		LastPhase string `json:"last_phase"`
		Events    []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, data)
	}
	if dump.Node != int(victim) {
		t.Errorf("flight dump names node %d, want %d", dump.Node, victim)
	}
	if dump.LastPhase == "" {
		t.Error("flight dump has no last phase")
	}
	if len(dump.Events) == 0 {
		t.Error("flight dump carries no flight-recorder events")
	}
}

// TestSilentSinceNamesLongestSilent pins the post-mortem's order on
// fabricated beats: a loaded survivor whose last beat lands just before
// the probe, and a victim silent for seconds. The victim comes first
// whatever the ids, so postMortem's fallback names it, not the lower id.
func TestSilentSinceNamesLongestSilent(t *testing.T) {
	h := newFleetHealth([]network.NodeID{1, 2, 3})
	probe := time.Now()
	beat := func(id network.NodeID, at time.Time) { h.observeBeat(id, &beatMsg{ID: id}, at) }
	beat(1, probe.Add(-time.Millisecond)) // survivor, late on the probe
	beat(2, probe.Add(-3*time.Second))    // victim
	beat(3, probe.Add(time.Millisecond))  // answered the probe
	dead := h.silentSince(probe)
	if len(dead) != 2 || dead[0] != 2 || dead[1] != 1 {
		t.Fatalf("silentSince = %v, want [2 1]: the victim, then the late survivor", dead)
	}
}
