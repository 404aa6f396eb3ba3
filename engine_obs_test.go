package dstress_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dstress"
	"dstress/internal/obs"
)

// TestClusterByteAccounting pins the byte-accounting relationship the
// Report docs promise (internal/vertex/report.go): each cluster
// node reports its own sent+received bytes per phase, and the facade folds
// them into total bytes *sent* by halving the sum — every byte one node
// sends, exactly one node receives. The sim engine runs the same driver
// over in-process nodes, so its report is the same fold of the same rows.
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
	// Phase bytes are chained marks on each node's query counters, so a
	// node's phases sum to its Stats exactly (phase *attribution* may differ
	// across nodes — a byte sent in one node's compute window can land in
	// another's transfer window — but no byte falls between two phases).
	checkRowsSumToStats(t, "tcp", rep)
	if float64(total) != rep.AvgNodeBytes*float64(rep.Nodes) {
		t.Errorf("phase byte sum %d != fleet transport total %.0f", total, rep.AvgNodeBytes*float64(rep.Nodes))
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

	// The simulation is the same driver over in-process nodes: its report
	// carries the same per-node table, and its fleet is a live health plane.
	sess, err := dstress.NewSimEngine(econf).Open(ctx, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tr := obs.NewTrace(0)
	from := time.Since(tr.Epoch())
	simRes, err := sess.Query(obs.With(ctx, tr), dstress.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	to := time.Since(tr.Epoch())
	sim := simRes.Report
	// The in-process nodes share the driver's clock, so their merged spans
	// land exactly inside the query's own window on the driver's timeline.
	for _, sp := range tr.Spans() {
		if start, end := time.Duration(sp.Start), time.Duration(sp.Start+sp.Dur); start < from || end > to {
			t.Fatalf("node %d span %s at [%v, %v] outside the query's window [%v, %v]", sp.Node, sp.Name, start, end, from, to)
		}
	}
	if len(tr.Spans()) == 0 {
		t.Error("sim query merged no node spans into the driver's trace")
	}
	if len(sim.NodePhases) != sim.Nodes {
		t.Fatalf("sim NodePhases has %d rows, want one per node (%d)", len(sim.NodePhases), sim.Nodes)
	}
	for i, np := range sim.NodePhases {
		if int(np.Node) != i+1 {
			t.Errorf("sim NodePhases[%d].Node = %d, want %d (sorted by id)", i, np.Node, i+1)
		}
	}
	if len(sim.SlowestNodes()) != 4 {
		t.Errorf("sim report names %d stragglers, want one per phase", len(sim.SlowestNodes()))
	}
	// The hub charges a fixed size per message, so with dealt OTs every
	// query of a session moves the same bytes, and its phases hold them all
	// (which phase a byte lands in on a node still depends on timing).
	checkRowsSumToStats(t, "sim", sim)
	for q := 2; q <= 3; q++ {
		again, err := sess.Query(ctx, dstress.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		checkRowsSumToStats(t, "sim", again.Report)
		if got, want := again.Report.TotalBytes(), sim.TotalBytes(); got != want {
			t.Errorf("sim query %d: phase bytes total %d, query 1 moved %d", q, got, want)
		}
	}
	if fh := sess.Fleet(); fh == nil || len(fh.Nodes) != sim.Nodes {
		t.Errorf("sim fleet = %+v, want %d nodes", fh, sim.Nodes)
	} else {
		for _, n := range fh.Nodes {
			if !n.Synced {
				t.Errorf("sim node %d has no heartbeat clock estimate", n.Node)
			}
		}
	}
	// Both engines fold the same engine's rows with the same function, so
	// everything that is not a measurement agrees between them.
	if sim.Nodes != rep.Nodes || sim.Iterations != rep.Iterations ||
		sim.UpdateAndGates != rep.UpdateAndGates || sim.AggAndGates != rep.AggAndGates {
		t.Errorf("sim report (nodes %d, iterations %d, AND gates %d/%d) != tcp report (%d, %d, %d/%d)",
			sim.Nodes, sim.Iterations, sim.UpdateAndGates, sim.AggAndGates,
			rep.Nodes, rep.Iterations, rep.UpdateAndGates, rep.AggAndGates)
	}
}

// checkRowsSumToStats asserts that every node row's phase bytes add up to
// exactly the node's own sent+received traffic for the query.
func checkRowsSumToStats(t *testing.T, engine string, rep *dstress.Report) {
	t.Helper()
	for _, np := range rep.NodePhases {
		var sum int64
		for _, ph := range np.Phases() {
			sum += ph.Bytes
		}
		if want := np.Stats.BytesSent + np.Stats.BytesReceived; sum != want {
			t.Errorf("%s node %d: phase bytes sum to %d, Stats say %d", engine, np.Node, sum, want)
		}
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
