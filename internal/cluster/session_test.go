package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
)

// openBudgetedHub stands up a 4-node in-process fleet whose session may
// spend budget ε, for the admission tests; the test closes it.
func openBudgetedHub(t *testing.T, budget float64) *Session {
	t.Helper()
	sc, _ := enChainScenario(t, 4, Config{Group: group.ModP256(), K: 1, Alpha: 0.5}, 1)
	sc.Budget = budget
	sess, err := OpenHub(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// newGate returns a context that holds the query it is passed to right
// after admission (see gateCtx).
func newGate(ctx context.Context) *gateCtx {
	return &gateCtx{Context: ctx, entered: make(chan struct{}), release: make(chan struct{})}
}

// awaitGate waits until a gated query is admitted and held.
func awaitGate(t *testing.T, g *gateCtx) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("query never reached its gate")
	}
}

// queryTags returns the "q/<id>" tags the spans of a query's trace carry.
func queryTags(tr *obs.Trace) map[string]bool {
	tags := map[string]bool{}
	for _, sp := range tr.Spans() {
		tags[sp.Query] = true
	}
	return tags
}

// TestSessionBusyGuard pins the concurrent-caller contract: while one
// query is in flight, a second Query fails fast with ErrSessionBusy (and
// is not charged), Close waits for the in-flight query instead of tearing
// the protocol down under it, and after release everything completes.
func TestSessionBusyGuard(t *testing.T) {
	sess := openBudgetedHub(t, 1.0)
	ctx := context.Background()

	held := newGate(ctx)
	firstDone := make(chan error, 1)
	go func() {
		_, err := sess.Query(held, Query{Epsilon: 0.5})
		firstDone <- err
	}()
	awaitGate(t, held)

	// Concurrent caller: refused with the typed error, budget untouched.
	if _, err := sess.Query(ctx, Query{Epsilon: 0.5}); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent query returned %v, want ErrSessionBusy", err)
	}
	if got := sess.Spent(); got != 0.5 {
		t.Errorf("refused query changed the accountant: spent %v, want 0.5", got)
	}

	// Close must wait for the in-flight query, not race it.
	closeDone := make(chan error, 1)
	go func() { closeDone <- sess.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) under an in-flight query", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(held.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("in-flight query failed: %v", err)
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned")
	}

	// After Close, queries are refused with the typed closed error.
	if _, err := sess.Query(ctx, Query{Epsilon: 0.1}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("query after Close returned %v, want ErrSessionClosed", err)
	}
}

// TestSessionMaxConcurrent pins the admission seam: SetMaxConcurrent(2)
// admits two overlapping queries with distinct query ids, the third is
// refused fail-fast with ErrSessionBusy and charged nothing, and a slot
// freed by a finishing query is reusable.
func TestSessionMaxConcurrent(t *testing.T) {
	sess := openBudgetedHub(t, 10.0)
	sess.SetMaxConcurrent(2)
	ctx := context.Background()

	results := make(chan error, 2)
	var gates [2]*gateCtx
	var traces [2]*obs.Trace
	for i := range gates {
		traces[i] = obs.NewTrace(0)
		gates[i] = newGate(obs.With(ctx, traces[i]))
		go func(g *gateCtx) {
			_, err := sess.Query(g, Query{Epsilon: 1})
			results <- err
		}(gates[i])
	}
	for _, g := range gates {
		awaitGate(t, g)
	}

	// Third query: over the limit, typed refusal, budget untouched.
	if _, err := sess.Query(ctx, Query{Epsilon: 1}); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("over-admission query returned %v, want ErrSessionBusy", err)
	}
	if got := sess.Spent(); got != 2 {
		t.Errorf("refused query changed the accountant: spent %v, want 2", got)
	}

	for _, g := range gates {
		close(g.release)
	}
	for range gates {
		if err := <-results; err != nil {
			t.Fatalf("admitted query failed: %v", err)
		}
	}
	seqs := map[string]bool{}
	for i, tr := range traces {
		tags := queryTags(tr)
		if len(tags) != 1 {
			t.Fatalf("query %d's trace carries tags %v, want one", i, tags)
		}
		for tag := range tags {
			seqs[tag] = true
		}
	}
	if !seqs["q/1"] || !seqs["q/2"] {
		t.Fatalf("overlapping queries got ids %v, want distinct ids q/1 and q/2", seqs)
	}

	// Slots freed: a new query is admitted again and gets the next id.
	tr := obs.NewTrace(0)
	if _, err := sess.Query(obs.With(ctx, tr), Query{Epsilon: 1}); err != nil {
		t.Fatalf("post-release query failed: %v", err)
	}
	if tags := queryTags(tr); len(tags) != 1 || !tags["q/3"] {
		t.Fatalf("post-release query got ids %v, want q/3", tags)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

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
	// clock runs 2ms ahead and the health plane knows it from one
	// heartbeat exchange, while node 1's first heartbeat is still out.
	s := &Session{c: &Coordinator{}, health: newFleetHealth([]network.NodeID{1, 2})}
	s.health.observeBeat(2, &beatMsg{ID: 2, T1: base, T2: base + 2*ms, T3: base + 2*ms}, time.Unix(0, base))
	s.mergeTrace(tr, doneMsg{ID: 1, Epoch: base + 5*ms, Spans: span(1)})
	s.mergeTrace(tr, doneMsg{ID: 2, Epoch: base + 7*ms, Spans: span(2)})
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
	s.mergeTrace(nil, doneMsg{}) // no trace: nothing to do
}

// TestSessionAnswersTinyEpsilon pins that admission has no ε floor: the
// noise sampler grows with log(1/ε), so queries at ε = 1e-6 and 1e-300 on
// the EN program (s = 10) are answered and charged exactly their ε, and
// the session serves the next query.
func TestSessionAnswersTinyEpsilon(t *testing.T) {
	sess := openBudgetedHub(t, 1.0)
	defer sess.Close()
	ctx := context.Background()
	want := 0.0
	for _, eps := range []float64{1e-6, 1e-300} {
		if _, err := sess.Query(ctx, Query{Epsilon: eps}); err != nil {
			t.Fatalf("ε = %g query: %v", eps, err)
		}
		if want += eps; sess.Spent() != want {
			t.Errorf("after the ε = %g query the accountant spent %g, want %g", eps, sess.Spent(), want)
		}
	}
	if _, err := sess.Query(ctx, Query{Epsilon: 0.5}); err != nil {
		t.Fatalf("query after the tiny ones: %v", err)
	}
}
