package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"dstress/internal/group"
	"dstress/internal/network"
)

func TestRegistrationDeadline(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	sc, _ := enChainScenario(t, 4, cfg, 1)
	co, err := NewCoordinator("127.0.0.1:0", sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = co.Run(ctx) // no nodes ever connect
	if err == nil {
		t.Fatal("Run succeeded with zero nodes")
	}
	if !strings.Contains(err.Error(), "registration deadline") {
		t.Errorf("error does not mention the deadline: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("deadline took %v to fire", time.Since(start))
	}
}

// TestPartialFleetAborts launches only 3 of 4 nodes: when the coordinator's
// registration deadline fires, the connected nodes must return errors
// instead of hanging in the control-plane handshake.
func TestPartialFleetAborts(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	sc, _ := enChainScenario(t, 4, cfg, 1)
	co, err := NewCoordinator("127.0.0.1:0", sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	nodeErrs := make(chan error, 3)
	for id := 1; id <= 3; id++ {
		id := id
		go func() {
			_, err := RunNode(context.Background(), NodeOptions{
				ID: network.NodeID(id), CoordAddr: co.Addr(), ListenAddr: "127.0.0.1:0",
			})
			nodeErrs <- err
		}()
	}
	if _, err := co.Run(ctx); err == nil {
		t.Fatal("coordinator succeeded with a missing node")
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-nodeErrs:
			if err == nil {
				t.Error("node returned success from an aborted fleet")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("node still blocked after the coordinator aborted")
		}
	}
}
