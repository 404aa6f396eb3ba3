package vertex

import (
	"fmt"
	"io"
	"time"

	"dstress/internal/network"
)

// Report summarizes an execution: the quantities Figures 3–6 plot. It is
// the one declaration of the phase table — an Engine fills one per node and
// query (a NodeResult row), Fold combines a query's rows into the
// deployment-level view, and every surface above (facade, HTTP, metrics,
// command-line tables, the paper's tables) renders Phases() instead of
// keeping its own copy of the fields.
type Report struct {
	// Phase wall-clock durations. Noising happens inside the aggregation
	// MPC, matching the paper's "Aggregation & noising" bar in Figure 5.
	// Init includes joining the query's GMW sessions. Folded: the slowest
	// node's (phases barrier on the protocol's own communication).
	InitTime, ComputeTime, CommTime, AggTime time.Duration
	// SetupTime is the engine's one-time setup cost: the first job's
	// session joins, which carry the pairwise base-OT handshakes (folded:
	// the slowest node's). It is the same for every query of a standing
	// deployment.
	SetupTime time.Duration
	// BaseOTHandshakes counts the pairwise base-OT bootstraps the node has
	// performed (folded: summed over nodes). With the OT substrate the sum
	// equals the number of ordered node pairs sharing at least one session
	// — independent of the block count. Dealer-provisioned runs report 0.
	BaseOTHandshakes int64
	// Phase traffic. A node reports its own sent+received bytes under the
	// query's tag namespace; an engine's first job additionally charges the
	// base-OT handshakes to Init. Folded: total
	// bytes sent, i.e. Σ(sent+received) over nodes, halved — every byte
	// one node sends, exactly one node receives (TestClusterByteAccounting
	// pins the relationship).
	InitBytes, ComputeBytes, CommBytes, AggBytes int64
	// AvgNodeBytes and MaxNodeBytes summarize per-node sent+received
	// traffic — the "traffic per node" quantity of Figures 4–6; only folded
	// reports carry them.
	AvgNodeBytes float64
	MaxNodeBytes int64
	// Iterations actually executed.
	Iterations int
	// UpdateAndGates and AggAndGates record circuit sizes (cost drivers).
	UpdateAndGates, AggAndGates int
	// Recoveries counts node deaths this query survived by re-blocking
	// (only whoever coordinates recovery knows it); ReplayedBarriers counts
	// the lock-step barriers re-executed to resume (folded: the maximum).
	// Both are zero unless recovery was enabled and a node actually died.
	Recoveries, ReplayedBarriers int
}

// Phase is one row of a Report's phase table: a protocol phase under each
// of the names the system knows it by, with the report's time and traffic
// for it. The four vocabularies are declared here and nowhere else.
type Phase struct {
	// Step is the leaf of the span and progress path the engine announces
	// the phase under: "phase/init", "iter/<i>/compute",
	// "iter/<i>/communicate", "phase/agg".
	Step string
	// Name is the metrics label value and PhaseLeader.Phase.
	Name string
	// Label heads the phase's column or row in printed tables.
	Label string
	// Key is the stem of the phase's JSON and log keys: "<Key>_ms",
	// "<Key>_bytes".
	Key string

	Time  time.Duration
	Bytes int64
}

// phaseVocab is the phase table's fixed part, in execution order; slot maps
// each row to its Report fields.
var phaseVocab = [...]Phase{
	{Step: "init", Name: "init", Label: "init", Key: "init"},
	{Step: "compute", Name: "compute", Label: "compute", Key: "compute"},
	{Step: "communicate", Name: "communicate", Label: "transfer", Key: "transfer"},
	{Step: "agg", Name: "aggregate", Label: "agg+noise", Key: "agg"},
}

// slot returns the fields behind row i of the phase table.
func (r *Report) slot(i int) (*time.Duration, *int64) {
	switch i {
	case 0:
		return &r.InitTime, &r.InitBytes
	case 1:
		return &r.ComputeTime, &r.ComputeBytes
	case 2:
		return &r.CommTime, &r.CommBytes
	default:
		return &r.AggTime, &r.AggBytes
	}
}

// Phases returns the phase table in execution order. The zero Report yields
// the vocabulary alone.
func (r *Report) Phases() []Phase {
	out := phaseVocab
	for i := range out {
		t, b := r.slot(i)
		out[i].Time, out[i].Bytes = *t, *b
	}
	return out[:]
}

// TotalTime returns the summed phase durations.
func (r *Report) TotalTime() time.Duration {
	return r.InitTime + r.ComputeTime + r.CommTime + r.AggTime
}

// TotalBytes returns the summed phase traffic.
func (r *Report) TotalBytes() int64 {
	return r.InitBytes + r.ComputeBytes + r.CommBytes + r.AggBytes
}

// NodeResult is one node's row of a query's outcome: what the node learned
// and what the run cost it.
type NodeResult struct {
	Node network.NodeID
	// Result is the opened noised aggregate; only aggregation-block members
	// have it (HasResult).
	Result    int64
	HasResult bool
	// Report is the node's own phase table: its wall time in each phase and
	// its sent+received bytes.
	Report
	// Stats is this node's traffic for the query, carved out of the
	// transport's counters by the query's tag namespace.
	Stats network.Stats
}

// Fold turns one query's per-node rows into its outcome — the one place the
// driver (the cluster coordinator, on either transport) learns what a query
// released and what it cost. Every one of the aggMembers
// aggregation-block members opened the aggregate, and they must agree. See
// the Report fields for how each quantity folds.
func Fold(nodes []NodeResult, aggMembers int) (int64, *Report, error) {
	var result int64
	opened := 0
	out := &Report{}
	var nodeBytes int64
	for i := range nodes {
		n := &nodes[i]
		if n.HasResult {
			if opened > 0 && n.Result != result {
				return 0, nil, fmt.Errorf("vertex: aggregation members disagree: %d vs %d", result, n.Result)
			}
			result = n.Result
			opened++
		}
		for p := range phaseVocab {
			t, b := out.slot(p)
			nt, nb := n.slot(p)
			*t = max(*t, *nt)
			*b += *nb
		}
		out.SetupTime = max(out.SetupTime, n.SetupTime)
		out.BaseOTHandshakes += n.BaseOTHandshakes
		out.Iterations = n.Iterations
		out.UpdateAndGates, out.AggAndGates = n.UpdateAndGates, n.AggAndGates
		out.ReplayedBarriers = max(out.ReplayedBarriers, n.ReplayedBarriers)
		sr := n.Stats.BytesSent + n.Stats.BytesReceived
		nodeBytes += sr
		out.MaxNodeBytes = max(out.MaxNodeBytes, sr)
	}
	if opened != aggMembers {
		return 0, nil, fmt.Errorf("vertex: %d nodes opened a result, want %d aggregation members", opened, aggMembers)
	}
	for p := range phaseVocab {
		_, b := out.slot(p)
		*b /= 2
	}
	if len(nodes) > 0 {
		out.AvgNodeBytes = float64(nodeBytes) / float64(len(nodes))
	}
	return result, out, nil
}

// PhaseLeader names the slowest node for one phase — the straggler whose
// wall time a folded cluster Report shows, since every phase barriers on
// the protocol's own communication.
type PhaseLeader struct {
	Phase string
	Node  network.NodeID
	Time  time.Duration
}

// SlowestNodes returns the straggler per phase, in execution order; nil
// when there are no rows.
func SlowestNodes(nodes []NodeResult) []PhaseLeader {
	if len(nodes) == 0 {
		return nil
	}
	leaders := make([]PhaseLeader, len(phaseVocab))
	for i, ph := range phaseVocab {
		leaders[i].Phase = ph.Name
	}
	for _, n := range nodes {
		for i, ph := range n.Phases() {
			if ph.Time > leaders[i].Time {
				leaders[i].Time, leaders[i].Node = ph.Time, n.Node
			}
		}
	}
	return leaders
}

// WriteNodeTable prints the per-node table behind a folded report — one row
// per node with its phase times and sent bytes — and names the straggler
// whose wall time each folded phase shows. Nothing is printed without rows.
func WriteNodeTable(w io.Writer, nodes []NodeResult) {
	if len(nodes) == 0 {
		return
	}
	round := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	fmt.Fprintf(w, "\n%-5s", "node")
	for _, ph := range phaseVocab {
		fmt.Fprintf(w, "  %-12s", ph.Label)
	}
	fmt.Fprintf(w, "  sent bytes\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "%-5d", n.Node)
		for _, ph := range n.Phases() {
			fmt.Fprintf(w, "  %-12v", round(ph.Time))
		}
		fmt.Fprintf(w, "  %d\n", n.Stats.BytesSent)
	}
	fmt.Fprintf(w, "\nslowest node per phase:")
	for i, l := range SlowestNodes(nodes) {
		fmt.Fprintf(w, " %s=%d (%v)", phaseVocab[i].Label, l.Node, round(l.Time))
	}
	fmt.Fprintln(w)
}
