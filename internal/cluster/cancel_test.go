package cluster

import (
	"context"
	"testing"
	"time"

	"dstress/internal/group"
	"dstress/internal/network"
)

// TestNodeKillMidRunAbortsFleet kills one node in the middle of a
// loopback-cluster run and requires the whole fleet to fail fast: the
// coordinator's Run returns an error, and every surviving node daemon
// returns a context/transport error instead of blocking forever on its
// dead counterparty. This is the failure-detection guarantee of the
// context plumbing (detection, not recovery: the run is lost, the
// processes are not).
func TestNodeKillMidRunAbortsFleet(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	sc, _ := enChainScenario(t, 4, cfg, 8)
	co, err := NewCoordinator("127.0.0.1:0", sc)
	if err != nil {
		t.Fatal(err)
	}

	const victim = network.NodeID(2)
	victimCtx, kill := context.WithCancel(context.Background())
	defer kill()
	type nodeExit struct {
		id  network.NodeID
		err error
	}
	exits := make(chan nodeExit, 4)
	for id := network.NodeID(1); id <= 4; id++ {
		id := id
		ctx := context.Background()
		if id == victim {
			ctx = victimCtx
		}
		go func() {
			_, err := RunNode(ctx, NodeOptions{
				ID: id, CoordAddr: co.Addr(), ListenAddr: "127.0.0.1:0",
			})
			exits <- nodeExit{id, err}
		}()
	}

	sess, err := co.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Kill the victim once the query is under way.
	go func() {
		time.Sleep(500 * time.Millisecond)
		kill()
	}()

	runCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := sess.Query(runCtx, Query{Iterations: 8}); err == nil {
		t.Fatal("coordinator run succeeded despite a killed node")
	} else {
		t.Logf("coordinator failed after %v: %v", time.Since(start), err)
	}
	if runCtx.Err() != nil {
		t.Fatal("coordinator only failed because the test deadline expired — the kill did not propagate")
	}

	// Every daemon — victim and survivors — must return promptly.
	for i := 0; i < 4; i++ {
		select {
		case e := <-exits:
			if e.err == nil {
				t.Errorf("node %d returned success from an aborted run", e.id)
			} else {
				t.Logf("node %d exited after %v: %v", e.id, time.Since(start), e.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a node is still blocked 30s after its counterparty died")
		}
	}
}
