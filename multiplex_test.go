package dstress_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"dstress"
)

// TestSessionOverlappingQueriesBothBackends is the multiplexing
// equivalence test: K queries run *concurrently* on one standing session
// — sharing the fleet, the transport, and the OT substrate — and every
// one must reproduce the plaintext reference exactly, on both the
// in-process simulation and a loopback TCP cluster. Each query lives
// under its own "q/<id>" tag namespace, so interleaved protocol
// messages can never be delivered across queries; this test (run under
// -race in CI) is the proof. Closing the session must then leave nothing
// running: no heartbeat loop, control-plane reader, node goroutine or
// transport outlives it on either engine.
func TestSessionOverlappingQueriesBothBackends(t *testing.T) {
	const overlap = 3
	job, exact := enChainJob(t, 4)
	ctx := context.Background()
	econf := dstress.EngineConfig{Group: dstress.TestGroup(), K: 1, Alpha: 0.5}

	engines := []struct {
		name string
		eng  dstress.SessionEngine
	}{
		{"sim", dstress.NewSimEngine(econf)},
		{"tcp", dstress.NewClusterEngine(econf)},
	}
	for _, tc := range engines {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sess, err := tc.eng.Open(ctx, job, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sess.SetMaxConcurrent(overlap)

			var wg sync.WaitGroup
			results := make([]*dstress.Result, overlap)
			errs := make([]error, overlap)
			for i := 0; i < overlap; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = sess.Query(ctx, dstress.QuerySpec{Iterations: job.Iterations})
				}(i)
			}
			wg.Wait()

			for i := 0; i < overlap; i++ {
				if errs[i] != nil {
					t.Fatalf("overlapping query %d: %v", i, errs[i])
				}
				if results[i].Raw != exact {
					t.Errorf("overlapping query %d released %d, reference %d", i, results[i].Raw, exact)
				}
				if results[i].Report == nil || results[i].Report.TotalBytes() <= 0 {
					t.Errorf("overlapping query %d has no per-query traffic report", i)
				}
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, before)
		})
	}
}

// settleGoroutines waits for the goroutine count to return to before (the
// count when the deployment was opened), failing with every live stack if
// it has not within a few seconds.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive the session (%d before it opened):\n%s",
				runtime.NumGoroutine()-before, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMultiplexedQueryBytesMatchSolo pins the per-query wire-byte
// accounting under multiplexing: a query that shares its session with
// two concurrent neighbours must report the same traffic as the same
// query run alone. Anything else means one query's bytes are being
// charged to another's "q/<id>" namespace. (The bound is the same 1.5×
// slack the sequential multi-query test uses, absorbing transfer-phase
// noise randomness.)
func TestMultiplexedQueryBytesMatchSolo(t *testing.T) {
	const overlap = 3
	job, _ := enChainJob(t, 4)
	ctx := context.Background()
	eng := dstress.NewSimEngine(dstress.EngineConfig{Group: dstress.TestGroup(), K: 1, Alpha: 0.5})

	sess, err := eng.Open(ctx, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetMaxConcurrent(overlap)

	// Solo baseline: the session is warm (first query pays the one-time
	// OT handshakes), so later queries report steady-state traffic.
	if _, err := sess.Query(ctx, dstress.QuerySpec{Iterations: job.Iterations}); err != nil {
		t.Fatal(err)
	}
	base, err := sess.Query(ctx, dstress.QuerySpec{Iterations: job.Iterations})
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := base.Report.TotalBytes()
	if baseBytes <= 0 {
		t.Fatalf("solo query reported no traffic: %+v", base.Report)
	}

	var wg sync.WaitGroup
	results := make([]*dstress.Result, overlap)
	errs := make([]error, overlap)
	for i := 0; i < overlap; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sess.Query(ctx, dstress.QuerySpec{Iterations: job.Iterations})
		}(i)
	}
	wg.Wait()

	for i := 0; i < overlap; i++ {
		if errs[i] != nil {
			t.Fatalf("overlapping query %d: %v", i, errs[i])
		}
		got := results[i].Report.TotalBytes()
		if got < baseBytes/2 || got > baseBytes*3/2 {
			t.Errorf("overlapping query %d reported %d bytes vs solo %d — per-query accounting leaking across query ids",
				i, got, baseBytes)
		}
	}
}
