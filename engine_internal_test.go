package dstress

import (
	"testing"
	"time"

	"dstress/internal/cluster"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/vertex"
)

// TestMergeTraceUnsyncedNode pins where a node's spans land on the driver's
// timeline: shifted by the node's job-start epoch, less its estimated clock
// offset once the health plane has one — and with a zero offset, not left
// at their node-relative offsets, while the node's first heartbeat is
// still out.
func TestMergeTraceUnsyncedNode(t *testing.T) {
	tr := obs.NewTrace(0)
	base := tr.Epoch().UnixNano()
	ms := time.Millisecond.Nanoseconds()
	span := func(node int32) []obs.Span {
		return []obs.Span{{Name: "phase/init", Node: node, Start: ms, Dur: ms}}
	}
	// Both nodes started their job 5ms into the driver's trace; node 2's
	// clock runs 2ms ahead and the health plane knows it.
	mergeTrace(tr, &cluster.Summary{
		Nodes: []vertex.NodeResult{{Node: 1}, {Node: 2}},
		Spans: map[network.NodeID][]obs.Span{1: span(1), 2: span(2)},
		Clock: map[network.NodeID]cluster.ClockInfo{
			1: {EpochUnixNS: base + 5*ms},
			2: {EpochUnixNS: base + 7*ms, Offset: 2 * time.Millisecond, Synced: true},
		},
	})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("merged %d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if sp.Start != 6*ms {
			t.Errorf("node %d span starts at %v on the driver's timeline, want 6ms",
				sp.Node, time.Duration(sp.Start))
		}
	}
	mergeTrace(nil, &cluster.Summary{}) // no trace: nothing to do
}
