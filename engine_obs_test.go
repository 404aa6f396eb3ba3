package dstress_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dstress"
	"dstress/internal/obs"
)

// TestClusterByteAccounting pins the byte-accounting relationship the
// Report docs promise (internal/vertex/report.go): each cluster
// node reports its own sent+received bytes per phase, and the facade folds
// them into total bytes *sent* by halving the sum — every byte one node
// sends, exactly one node receives. The sim engine reports the same
// quantity directly, so both backends' reports are comparable.
func TestClusterByteAccounting(t *testing.T) {
	job, _ := enChainJob(t, 4)
	ctx := context.Background()
	econf := dstress.EngineConfig{Group: dstress.TestGroup(), K: 1, Alpha: 0.5}

	res, err := dstress.NewClusterEngine(econf).Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report

	if len(rep.NodePhases) != rep.Nodes {
		t.Fatalf("NodePhases has %d rows, want one per node (%d)", len(rep.NodePhases), rep.Nodes)
	}
	for i, np := range rep.NodePhases {
		if int(np.Node) != i+1 {
			t.Errorf("NodePhases[%d].Node = %d, want %d (sorted by id)", i, np.Node, i+1)
		}
	}

	// The folded phase bytes must be exactly half the per-node sums.
	var total int64
	for i, ph := range rep.Phases() {
		var sum int64
		for _, np := range rep.NodePhases {
			sum += np.Phases()[i].Bytes
		}
		if ph.Bytes != sum/2 {
			t.Errorf("%s bytes: folded %d, want Σ(sent+recv)/2 = %d", ph.Name, ph.Bytes, sum/2)
		}
		if sum <= 0 {
			t.Errorf("%s bytes: per-node sum is %d, want > 0", ph.Name, sum)
		}
		total += sum
	}
	// Phase deltas are carved out of each node's transport counters, so
	// their sum cannot exceed the fleet's total sent+received traffic
	// (phase *attribution* may differ across nodes — a byte sent in one
	// node's compute window can land in another's transfer window — but
	// every counted byte lives inside the transport totals).
	if float64(total) > rep.AvgNodeBytes*float64(rep.Nodes)+1 {
		t.Errorf("phase byte sum %d exceeds fleet transport total %.0f", total, rep.AvgNodeBytes*float64(rep.Nodes))
	}

	// Straggler attribution: every phase names a real node.
	leaders := rep.SlowestNodes()
	if len(leaders) != 4 {
		t.Fatalf("SlowestNodes returned %d phases, want 4", len(leaders))
	}
	for _, l := range leaders {
		if l.Node < 1 || int(l.Node) > rep.Nodes {
			t.Errorf("phase %s straggler node %d outside [1,%d]", l.Phase, l.Node, rep.Nodes)
		}
	}

	// Sim reports have no per-node table (one process runs every role).
	simRes, err := dstress.NewSimEngine(econf).Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(simRes.Report.NodePhases) != 0 {
		t.Errorf("sim report has %d NodePhases rows, want none", len(simRes.Report.NodePhases))
	}
	if simRes.Report.SlowestNodes() != nil {
		t.Error("sim report names stragglers; there is only one process")
	}
	// Both drivers fold the same engine's rows with the same function, so
	// everything that is not a measurement agrees between them.
	sim := simRes.Report
	if sim.Nodes != rep.Nodes || sim.Iterations != rep.Iterations ||
		sim.UpdateAndGates != rep.UpdateAndGates || sim.AggAndGates != rep.AggAndGates {
		t.Errorf("sim report (nodes %d, iterations %d, AND gates %d/%d) != tcp report (%d, %d, %d/%d)",
			sim.Nodes, sim.Iterations, sim.UpdateAndGates, sim.AggAndGates,
			rep.Nodes, rep.Iterations, rep.UpdateAndGates, rep.AggAndGates)
	}
}

// TestClusterTraceCollection runs a traced query on the loopback cluster
// and checks the driver's trace ends up with every node's spans and
// counters — the path dstress-run -trace -transport=tcp exercises.
func TestClusterTraceCollection(t *testing.T) {
	job, _ := enChainJob(t, 4)
	tr := obs.NewTrace(0)
	ctx := obs.With(context.Background(), tr)
	econf := dstress.EngineConfig{Group: dstress.TestGroup(), K: 1, Alpha: 0.5}

	if _, err := dstress.NewClusterEngine(econf).Run(ctx, job); err != nil {
		t.Fatal(err)
	}

	// Per-node per-iteration spans, stamped with the query tag.
	spans := tr.Spans()
	byNode := map[int32]int{}
	sawIter := map[int32]bool{}
	for _, sp := range spans {
		byNode[sp.Node]++
		if strings.HasPrefix(sp.Name, "iter/") {
			sawIter[sp.Node] = true
			if sp.Query != "q/1" {
				t.Errorf("span %q on node %d has query tag %q, want q/1", sp.Name, sp.Node, sp.Query)
			}
		}
	}
	for id := int32(1); id <= 4; id++ {
		if byNode[id] == 0 {
			t.Errorf("no spans collected from node %d", id)
		}
		if !sawIter[id] {
			t.Errorf("no per-iteration spans from node %d", id)
		}
	}

	// Protocol counters folded across the fleet.
	counters := tr.Counters()
	for _, want := range []string{"gmw/evals", "gmw/and_rounds", "ot/derand_batches"} {
		if counters[want] <= 0 {
			t.Errorf("counter %q = %d, want > 0", want, counters[want])
		}
	}
	var netBytes int64
	for name, v := range counters {
		if strings.HasPrefix(name, "net/") && strings.HasSuffix(name, "/bytes_sent") {
			netBytes += v
		}
	}
	if netBytes <= 0 {
		t.Errorf("no net/<prefix>/bytes_sent counters collected (got %v)", counters)
	}

	// The collected trace must export as valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Errorf("trace export has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
}
