package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"dstress/internal/risk"
)

// gateCtx parks its first Value lookup until released. Session.Run consults
// its context (for the caller's progress callback) after admitting a query
// and before dispatching it, so the gate holds one query at exactly the
// point where the first-job claim and the fleet dispatch used to be two
// critical sections.
type gateCtx struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (c *gateCtx) Value(key any) any {
	c.once.Do(func() {
		close(c.entered)
		<-c.release
	})
	return c.Context.Value(key)
}

// TestOverlappingFirstJobCarriesSetup pins that a session's topology,
// directory and signed setup ride on whichever job reaches the fleet first.
// The first query to be admitted is held before its dispatch while a second runs to
// completion: the second must carry the setup (nodes that get a job without
// one die building their engine and the session aborts), and the first must
// then run on the standing fleet without it.
func TestOverlappingFirstJobCarriesSetup(t *testing.T) {
	cfg := ConfigWire{Group: "modp256", K: 1, Alpha: 0.5}
	sc, exact := enChainScenario(t, 4, cfg, risk.RecommendedIterations(4))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	lb, err := OpenLoopback(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	held := &gateCtx{Context: ctx, entered: make(chan struct{}), release: make(chan struct{})}
	type outcome struct {
		sum *Summary
		err error
	}
	heldDone := make(chan outcome, 1)
	go func() {
		sum, err := lb.Run(held, Query{Iterations: sc.Iterations})
		heldDone <- outcome{sum, err}
	}()
	select {
	case <-held.entered:
	case o := <-heldDone:
		t.Fatalf("held query finished (%v) without consulting its context before dispatch; the test needs another seam", o.err)
	}

	sum, err := lb.Run(ctx, Query{Iterations: sc.Iterations})
	if err != nil {
		t.Fatalf("query dispatched ahead of the first-admitted one: %v", err)
	}
	if sum.Result != exact {
		t.Errorf("overtaking query released %d, reference %d", sum.Result, exact)
	}
	close(held.release)
	o := <-heldDone
	if o.err != nil {
		t.Fatalf("held query: %v", o.err)
	}
	if o.sum.Result != exact {
		t.Errorf("held query released %d, reference %d", o.sum.Result, exact)
	}
}
