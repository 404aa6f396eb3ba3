// Example cluster demonstrates a real multi-process DStress deployment on
// one machine: the parent process plays the coordinator (and trusted party)
// while three child OS processes — one per bank — each run a node daemon
// with its own TCP data plane, exactly as three machines would.
//
//	go run ./examples/cluster
//
// The parent re-executes its own binary with DSTRESS_ROLE=node for the
// children, so the demo needs no pre-built binaries. For a hand-driven
// multi-process run (or a multi-machine one), use cmd/dstress-node.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"

	"dstress/internal/cluster"
	"dstress/internal/group"
	"dstress/internal/network"
)

func main() {
	if os.Getenv("DSTRESS_ROLE") == "node" {
		runChildNode()
		return
	}

	// --- Parent: build a 3-bank debt chain and coordinate the run. ---
	sc, exactTDS, err := cluster.BuildSynthetic(cluster.SyntheticOptions{
		Model: "en", N: 3, Core: 2, D: 2, Shock: 1, Seed: 7,
		Scenario: cluster.Scenario{
			Config: cluster.Config{Group: group.ModP256(), K: 1, Alpha: 0.9},
			Job:    cluster.Job{Epsilon: 0.5},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	co, err := cluster.NewCoordinator("127.0.0.1:0", sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator listening on %s; spawning %d node processes\n", co.Addr(), sc.Graph.N())

	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	procs := make([]*exec.Cmd, 0, sc.Graph.N())
	for id := 1; id <= sc.Graph.N(); id++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			"DSTRESS_ROLE=node",
			"DSTRESS_NODE_ID="+strconv.Itoa(id),
			"DSTRESS_COORD="+co.Addr(),
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("spawning node %d: %v", id, err)
		}
		procs = append(procs, cmd)
	}

	res, err := co.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("node process %d: %v", i+1, err)
		}
	}

	fmt.Printf("\nexact TDS (what a trusted regulator would compute): $%.2fM\n", exactTDS/1e6)
	fmt.Printf("released TDS (ε=0.5, noised inside MPC):            $%.2fM\n", res.Value/1e6)
	fmt.Printf("3 OS processes, %d TCP-transported bytes, wall time %v\n",
		res.Report.TotalBytes(), res.Report.WallTime.Round(1e6))
}

func runChildNode() {
	id, err := strconv.Atoi(os.Getenv("DSTRESS_NODE_ID"))
	if err != nil {
		log.Fatalf("bad DSTRESS_NODE_ID: %v", err)
	}
	res, err := cluster.RunNode(context.Background(), cluster.NodeOptions{
		ID:         network.NodeID(id),
		CoordAddr:  os.Getenv("DSTRESS_COORD"),
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatalf("node %d: %v", id, err)
	}
	fmt.Printf("  node %d (pid %d): %d bytes sent over TCP, total time %v\n",
		id, os.Getpid(), res.Stats.BytesSent, res.Report.TotalTime().Round(1e6))
}
