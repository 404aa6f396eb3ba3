// dstress-bench regenerates the paper's evaluation tables and figures
// (§5, §4.5, Appendices B–C). Without flags it runs the quick-scale suite;
// -full switches to the paper's parameters (hours of CPU). It exits 1 when
// any experiment produces a table with no rows.
//
// Performance is measured by `bash bench/run.sh` against the contract in
// BENCHMARK.json, not here: these tables reproduce the paper's shapes.
//
// Usage:
//
//	dstress-bench                     # all experiments, quick scale
//	dstress-bench -experiment e6      # Figure 5 only
//	dstress-bench -full -group p256   # paper-scale parameters
//	dstress-bench -list               # experiment index (e1..e11)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dstress/internal/experiments"
	"dstress/internal/group"
)

func main() {
	var (
		expID     = flag.String("experiment", "all", "experiment id (e1..e11) or 'all'")
		full      = flag.Bool("full", false, "use the paper-scale parameters (slow)")
		groupName = flag.String("group", "", "crypto group: p256, p384, modp256 (default: modp256 quick / p256 full)")
		list      = flag.Bool("list", false, "print the experiment index and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}

	opts := experiments.Options{Full: *full}
	if *groupName != "" {
		g, err := group.ByName(*groupName)
		if err != nil {
			log.Fatal(err)
		}
		opts.Group = g
	}

	empty := 0
	run := func(id string) {
		t := experiments.ByID(id, opts)
		if t == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		fmt.Println(t.String())
		if len(t.Rows) == 0 {
			fmt.Fprintf(os.Stderr, "experiment %s produced no rows\n", t.ID)
			empty++
		}
	}

	start := time.Now()
	if *expID == "all" {
		for _, e := range experiments.Registry() {
			run(e.ID)
		}
	} else {
		run(*expID)
	}
	fmt.Fprintf(os.Stderr, "completed in %v\n", time.Since(start).Round(time.Millisecond))
	if empty > 0 {
		os.Exit(1)
	}
}
