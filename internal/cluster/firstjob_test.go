package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"dstress/internal/group"
	"dstress/internal/risk"
)

// gateCtx parks its first Value lookup until released. Session.Query
// consults its context (for the caller's trace) right after admitting a
// query — its id assigned, its ε charged, its admission slot taken — and
// before dispatching it, so the gate holds one query in flight at exactly
// that point.
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

// TestOverlappingFirstJobCarriesSetup pins that the first two queries of a
// standing fleet both return the reference however their dispatches
// overlap: the first query to be admitted is held before its dispatch while
// a second overtakes it and runs to completion, and the first then runs on
// the same fleet. Open handed every node its deployment, so no job carries
// it and neither order can leave a node without an engine.
func TestOverlappingFirstJobCarriesSetup(t *testing.T) {
	cfg := Config{Group: group.ModP256(), K: 1, Alpha: 0.5}
	sc, exact := enChainScenario(t, 4, cfg, risk.RecommendedIterations(4))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	lb, err := OpenLoopback(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lb.SetMaxConcurrent(2)

	held := &gateCtx{Context: ctx, entered: make(chan struct{}), release: make(chan struct{})}
	type outcome struct {
		res *Result
		err error
	}
	heldDone := make(chan outcome, 1)
	go func() {
		res, err := lb.Query(held, Query{})
		heldDone <- outcome{res, err}
	}()
	select {
	case <-held.entered:
	case o := <-heldDone:
		t.Fatalf("held query finished (%v) without consulting its context before dispatch; the test needs another seam", o.err)
	}

	res, err := lb.Query(ctx, Query{})
	if err != nil {
		t.Fatalf("query dispatched ahead of the first-admitted one: %v", err)
	}
	if res.Raw != exact {
		t.Errorf("overtaking query released %d, reference %d", res.Raw, exact)
	}
	close(held.release)
	o := <-heldDone
	if o.err != nil {
		t.Fatalf("held query: %v", o.err)
	}
	if o.res.Raw != exact {
		t.Errorf("held query released %d, reference %d", o.res.Raw, exact)
	}
}
