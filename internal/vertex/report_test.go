package vertex

import (
	"strings"
	"testing"
	"time"

	"dstress/internal/network"
)

func TestFold(t *testing.T) {
	// row builds a node row whose four phases take ms[i] milliseconds and
	// move bytes[i] sent+received bytes.
	row := func(id int, ms, bytes [4]int64, mutate func(*NodeResult)) NodeResult {
		n := NodeResult{Node: network.NodeID(id)}
		for i := range ms {
			tm, b := n.slot(i)
			*tm, *b = time.Duration(ms[i])*time.Millisecond, bytes[i]
		}
		if mutate != nil {
			mutate(&n)
		}
		return n
	}
	opened := func(v int64) func(*NodeResult) {
		return func(n *NodeResult) { n.Result, n.HasResult = v, true }
	}

	cases := []struct {
		name       string
		nodes      []NodeResult
		aggMembers int
		wantErr    string
		check      func(t *testing.T, result int64, rep *Report)
	}{
		{
			name:       "members disagree",
			nodes:      []NodeResult{row(1, [4]int64{}, [4]int64{}, opened(7)), row(2, [4]int64{}, [4]int64{}, opened(8))},
			aggMembers: 2,
			wantErr:    "disagree",
		},
		{
			name:       "too few openers",
			nodes:      []NodeResult{row(1, [4]int64{}, [4]int64{}, opened(7)), row(2, [4]int64{}, [4]int64{}, nil)},
			aggMembers: 2,
			wantErr:    "1 nodes opened a result, want 2",
		},
		{
			name:       "too many openers",
			nodes:      []NodeResult{row(1, [4]int64{}, [4]int64{}, opened(7)), row(2, [4]int64{}, [4]int64{}, opened(7))},
			aggMembers: 1,
			wantErr:    "2 nodes opened a result, want 1",
		},
		{
			name:       "empty input with members expected",
			aggMembers: 2,
			wantErr:    "0 nodes opened a result, want 2",
		},
		{
			name: "empty input",
			check: func(t *testing.T, result int64, rep *Report) {
				if result != 0 || *rep != (Report{}) {
					t.Errorf("empty fold = %d, %+v; want zero", result, *rep)
				}
			},
		},
		{
			name: "times max, bytes halved, replay max",
			nodes: []NodeResult{
				row(1, [4]int64{5, 20, 3, 1}, [4]int64{100, 400, 60, 10}, func(n *NodeResult) {
					opened(-42)(n)
					n.Stats = network.Stats{BytesSent: 300, BytesReceived: 270}
					n.SetupTime, n.BaseOTHandshakes, n.ReplayedBarriers = 9*time.Millisecond, 2, 1
					n.Iterations, n.UpdateAndGates, n.AggAndGates = 4, 11, 22
				}),
				row(2, [4]int64{7, 10, 9, 2}, [4]int64{50, 200, 61, 30}, func(n *NodeResult) {
					n.Stats = network.Stats{BytesSent: 141, BytesReceived: 200}
					n.SetupTime, n.BaseOTHandshakes, n.ReplayedBarriers = 4*time.Millisecond, 3, 3
					n.Iterations, n.UpdateAndGates, n.AggAndGates = 4, 11, 22
				}),
			},
			aggMembers: 1,
			check: func(t *testing.T, result int64, rep *Report) {
				want := Report{
					InitTime: 7 * time.Millisecond, ComputeTime: 20 * time.Millisecond,
					CommTime: 9 * time.Millisecond, AggTime: 2 * time.Millisecond,
					InitBytes: 75, ComputeBytes: 300, CommBytes: 60, AggBytes: 20,
					SetupTime: 9 * time.Millisecond, BaseOTHandshakes: 5,
					AvgNodeBytes: (570 + 341) / 2.0, MaxNodeBytes: 570,
					Iterations: 4, UpdateAndGates: 11, AggAndGates: 22,
					ReplayedBarriers: 3,
				}
				if result != -42 || *rep != want {
					t.Errorf("fold = %d, %+v\nwant -42, %+v", result, *rep, want)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			result, rep, err := Fold(tc.nodes, tc.aggMembers)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Fold error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, result, rep)
		})
	}
}

// TestPhaseTable pins the vocabulary every surface renders from and its
// order, and that Phases reads the fields it names.
func TestPhaseTable(t *testing.T) {
	rep := Report{
		InitTime: 1, ComputeTime: 2, CommTime: 3, AggTime: 4,
		InitBytes: 10, ComputeBytes: 20, CommBytes: 30, AggBytes: 40,
	}
	want := []Phase{
		{"init", "init", "init", "init", 1, 10},
		{"compute", "compute", "compute", "compute", 2, 20},
		{"communicate", "communicate", "transfer", "transfer", 3, 30},
		{"agg", "aggregate", "agg+noise", "agg", 4, 40},
	}
	got := rep.Phases()
	if len(got) != len(want) {
		t.Fatalf("Phases has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Phases()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if rep.TotalTime() != 10 || rep.TotalBytes() != 100 {
		t.Errorf("totals %v / %d, want 10ns / 100", rep.TotalTime(), rep.TotalBytes())
	}
}

func TestSlowestNodesAndTable(t *testing.T) {
	if SlowestNodes(nil) != nil {
		t.Error("SlowestNodes(nil) names stragglers")
	}
	nodes := []NodeResult{
		{Node: 1, Report: Report{InitTime: 5, ComputeTime: 1, CommTime: 2, AggTime: 9}},
		{Node: 2, Report: Report{InitTime: 3, ComputeTime: 8, CommTime: 2, AggTime: 1}},
	}
	leaders := SlowestNodes(nodes)
	want := []PhaseLeader{{"init", 1, 5}, {"compute", 2, 8}, {"communicate", 1, 2}, {"aggregate", 1, 9}}
	for i := range want {
		if leaders[i] != want[i] {
			t.Errorf("leader %d = %+v, want %+v", i, leaders[i], want[i])
		}
	}
	var sb strings.Builder
	WriteNodeTable(&sb, nodes)
	out := sb.String()
	for _, s := range []string{"node ", "transfer", "agg+noise", "sent bytes", "slowest node per phase: init=1", "compute=2"} {
		if !strings.Contains(out, s) {
			t.Errorf("node table lacks %q:\n%s", s, out)
		}
	}
	sb.Reset()
	WriteNodeTable(&sb, nil)
	if sb.Len() != 0 {
		t.Errorf("node table printed %q without rows", sb.String())
	}
}
