package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstress"
	"dstress/internal/cluster"
	"dstress/internal/dp"
)

// fakeRunner is a pool member that answers instantly (plus an optional
// delay) without running MPC, so service-layer tests are fast and
// deterministic.
type fakeRunner struct {
	delay   time.Duration
	fail    *atomic.Bool // non-nil: fail queries while set
	queries *atomic.Int64
	closed  *atomic.Int64
}

func (r *fakeRunner) Query(ctx context.Context, q dstress.QuerySpec) (*dstress.Result, error) {
	if r.delay > 0 {
		select {
		case <-time.After(r.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if r.fail != nil && r.fail.Load() {
		return nil, errors.New("injected protocol failure")
	}
	n := r.queries.Add(1)
	return &dstress.Result{Raw: n, Value: float64(n), Epsilon: q.Epsilon, Report: &dstress.Report{Transport: "fake"}}, nil
}

func (r *fakeRunner) Close() error {
	r.closed.Add(1)
	return nil
}

// fakePool builds a Config whose Open mints fakeRunners and returns the
// shared counters.
func fakePool(delay time.Duration) (Config, *atomic.Int64, *atomic.Int64, *atomic.Int64) {
	var opened, queries, closed atomic.Int64
	cfg := Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			opened.Add(1)
			return &fakeRunner{delay: delay, queries: &queries, closed: &closed}, nil
		},
		Logf: func(string, ...any) {},
	}
	return cfg, &opened, &queries, &closed
}

// cycleJob is the real-session workload: a tiny degree-sum program over a
// 4-cycle, one iteration, so pooled sessions run genuine MPC cheaply.
func cycleJob() (dstress.Job, error) {
	prog := &dstress.Program{
		Name: "cycle-degree-sum", StateBits: 8, MsgBits: 8, AggBits: 16,
		Sensitivity: 1,
		PrivBits:    func(D int) int { return 1 },
		BuildUpdate: func(b *dstress.CircuitBuilder, D int, state, priv dstress.Word, msgs []dstress.Word) (dstress.Word, []dstress.Word) {
			acc := b.ConstWord(0, 8)
			for _, m := range msgs {
				acc = b.Add(acc, m)
			}
			out := make([]dstress.Word, D)
			for d := range out {
				out[d] = b.ConstWord(1, 8)
			}
			return acc, out
		},
		BuildAggregate: func(b *dstress.CircuitBuilder, states []dstress.Word) dstress.Word {
			acc := b.ConstWord(0, 16)
			for _, s := range states {
				acc = b.Add(acc, b.ZeroExtend(s, 16))
			}
			return acc
		},
	}
	g := dstress.NewGraph(4, 2)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return dstress.Job{}, err
		}
	}
	for v := 0; v < 4; v++ {
		g.Priv[v] = []uint8{0}
	}
	return dstress.Job{Program: prog, Graph: g, Iterations: 1}, nil
}

// TestConcurrentBudgetEnforcement is the satellite load test: many
// goroutines hammer a small pool with queries charged to small per-tenant
// budgets. Exactly budget/ε queries per tenant may be admitted — no
// overspend, no double-charge on refused queries — and every admitted
// query completes cleanly. Run under -race.
func TestConcurrentBudgetEnforcement(t *testing.T) {
	const (
		tenants   = 3
		perTenant = 30  // submissions per tenant
		eps       = 0.1 // per query
		budget    = 1.0 // exactly 10 admissions per tenant
		wantAdmit = 10
	)
	cfg, _, queries, _ := fakePool(time.Millisecond)
	cfg.PoolCap = 4
	cfg.Warm = 2
	cfg.QueueDepth = tenants * perTenant // never backpressure: isolate budget refusals
	cfg.Tenants = map[string]float64{}
	for i := 0; i < tenants; i++ {
		cfg.Tenants[fmt.Sprintf("tenant-%d", i)] = budget
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	e := eps
	var wg sync.WaitGroup
	admitted := make([]atomic.Int64, tenants)
	refused := make([]atomic.Int64, tenants)
	for ti := 0; ti < tenants; ti++ {
		for j := 0; j < perTenant; j++ {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				tenant := fmt.Sprintf("tenant-%d", ti)
				st, err := svc.Do(context.Background(), Request{Tenant: tenant, Epsilon: &e})
				switch {
				case err == nil:
					if st.State != StateDone || st.Result == nil {
						t.Errorf("admitted query ended %s (%s)", st.State, st.Err)
					}
					admitted[ti].Add(1)
				case errors.Is(err, dp.ErrBudgetExhausted):
					refused[ti].Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
			}(ti)
		}
	}
	wg.Wait()

	for ti := 0; ti < tenants; ti++ {
		if got := admitted[ti].Load(); got != wantAdmit {
			t.Errorf("tenant-%d admitted %d queries, want exactly %d", ti, got, wantAdmit)
		}
		if got := refused[ti].Load(); got != perTenant-wantAdmit {
			t.Errorf("tenant-%d refused %d, want %d", ti, got, perTenant-wantAdmit)
		}
		st, err := svc.Ledger().Status(fmt.Sprintf("tenant-%d", ti))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.Spent-budget) > 1e-9 {
			t.Errorf("tenant-%d spent %v, want exactly %v", ti, st.Spent, budget)
		}
	}
	m := svc.Metrics()
	if m.Served != tenants*wantAdmit || m.Failed != 0 {
		t.Errorf("metrics served %d failed %d, want %d/0", m.Served, m.Failed, tenants*wantAdmit)
	}
	if m.Refused != tenants*(perTenant-wantAdmit) {
		t.Errorf("metrics refused %d, want %d", m.Refused, tenants*(perTenant-wantAdmit))
	}
	if want := float64(tenants) * budget; math.Abs(m.EpsilonCharged-want) > 1e-9 {
		t.Errorf("EpsilonCharged %v, want %v", m.EpsilonCharged, want)
	}
	if got := queries.Load(); got != tenants*wantAdmit {
		t.Errorf("runners executed %d queries, want %d", got, tenants*wantAdmit)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLazyPoolGrowth checks the pool warm-starts small and grows to its
// cap under queued demand, never beyond.
func TestLazyPoolGrowth(t *testing.T) {
	cfg, opened, _, closed := fakePool(20 * time.Millisecond)
	cfg.PoolCap = 3
	cfg.Warm = 1
	cfg.DefaultBudget = math.Inf(1)
	cfg.AllowUnnoised = true
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := opened.Load(); got != 1 {
		t.Fatalf("warm-start opened %d sessions, want 1", got)
	}

	const burst = 12
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Do(context.Background(), Request{}); err != nil {
				t.Errorf("burst query: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := svc.Metrics().PoolSessions; got > 3 {
		t.Errorf("pool grew to %d sessions, cap is 3", got)
	}
	if got := opened.Load(); got < 2 || got > 3 {
		t.Errorf("opened %d sessions under load, want 2..3 (grew lazily, within cap)", got)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if opened.Load() != closed.Load() {
		t.Errorf("opened %d sessions but closed %d", opened.Load(), closed.Load())
	}
}

// TestDrain pins the shutdown contract: in-flight and already-admitted
// queries complete, new submissions fail with ErrDraining, and every pool
// session is closed.
func TestDrain(t *testing.T) {
	cfg, opened, _, closed := fakePool(30 * time.Millisecond)
	cfg.PoolCap = 2
	cfg.Warm = 2
	cfg.DefaultBudget = math.Inf(1)
	cfg.AllowUnnoised = true
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Admit more queries than the pool can run at once, so some are
	// queued when the drain begins.
	const n = 6
	ids := make([]string, n)
	for i := range ids {
		st, err := svc.Submit(Request{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- svc.Drain(context.Background()) }()

	// New work is refused promptly once draining is visible.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := svc.Submit(Request{})
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still admitted during drain (last err: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, ok := svc.Get(id)
		if !ok || st.State != StateDone {
			t.Errorf("query %s after drain: ok=%v state=%v err=%q (admitted work must finish)", id, ok, st.State, st.Err)
		}
	}
	if opened.Load() != closed.Load() || closed.Load() != 2 {
		t.Errorf("opened %d closed %d, want both 2 (every pooled session closed)", opened.Load(), closed.Load())
	}
}

// TestDrainDeadlineAborts: when the drain context expires, in-flight
// queries are aborted through their contexts instead of blocking shutdown
// forever, and sessions still close.
func TestDrainDeadlineAborts(t *testing.T) {
	cfg, opened, _, closed := fakePool(10 * time.Minute) // effectively stuck
	cfg.PoolCap = 1
	cfg.Warm = 1
	cfg.DefaultBudget = math.Inf(1)
	cfg.AllowUnnoised = true
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(Request{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Fatal("forced drain reported success")
	}
	got, _ := svc.Get(st.ID)
	if got.State != StateFailed {
		t.Errorf("aborted query state %v, want failed", got.State)
	}
	if opened.Load() != closed.Load() {
		t.Errorf("opened %d closed %d after forced drain", opened.Load(), closed.Load())
	}
}

// TestSessionRecycledAfterFailure: a failed query poisons its session
// (undefined protocol state), so the worker must close it and stand up a
// fresh one for the next query.
func TestSessionRecycledAfterFailure(t *testing.T) {
	var opened, queries, closed atomic.Int64
	var failing atomic.Bool
	cfg := Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			opened.Add(1)
			return &fakeRunner{fail: &failing, queries: &queries, closed: &closed}, nil
		},
		PoolCap: 1, Warm: 1,
		DefaultBudget: math.Inf(1),
		AllowUnnoised: true,
		Logf:          func(string, ...any) {},
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	st, err := svc.Do(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("poisoned query state %v, want failed", st.State)
	}
	if closed.Load() != 1 {
		t.Errorf("failed session not closed (closed=%d)", closed.Load())
	}
	failing.Store(false)
	st, err = svc.Do(context.Background(), Request{})
	if err != nil || st.State != StateDone {
		t.Fatalf("query after recycle: %v, state %v", err, st.State)
	}
	if opened.Load() != 2 {
		t.Errorf("opened %d sessions, want 2 (original + recycled)", opened.Load())
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBackpressure: submissions beyond the queue depth are refused
// with ErrQueueFull and cost the tenant nothing.
func TestQueueBackpressure(t *testing.T) {
	cfg, _, _, _ := fakePool(50 * time.Millisecond)
	cfg.PoolCap = 1
	cfg.Warm = 1
	cfg.QueueDepth = 2
	cfg.Tenants = map[string]float64{"t": 100}
	e := 0.5
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())

	var full int
	for i := 0; i < 10; i++ {
		_, err := svc.Submit(Request{Tenant: "t", Epsilon: &e})
		if errors.Is(err, ErrQueueFull) {
			full++
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if full == 0 {
		t.Fatal("no submission hit backpressure")
	}
	st, _ := svc.Ledger().Status("t")
	admitted := 10 - full
	if want := float64(admitted) * e; math.Abs(st.Spent-want) > 1e-9 {
		t.Errorf("spent %v for %d admitted queries, want %v (refused must not charge)", st.Spent, admitted, want)
	}
}

// TestValidation: zero-ε refused on metered services, bad specs refused,
// unknown tenants refused when there is no default budget.
func TestValidation(t *testing.T) {
	cfg, _, _, _ := fakePool(0)
	cfg.Tenants = map[string]float64{"t": 1}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())

	if _, err := svc.Submit(Request{Tenant: "t"}); !errors.Is(err, errZeroEpsilon) {
		t.Errorf("zero-ε submit returned %v", err)
	}
	bad := math.NaN()
	if _, err := svc.Submit(Request{Tenant: "t", Epsilon: &bad}); err == nil {
		t.Error("NaN ε admitted")
	}
	e := 0.1
	if _, err := svc.Submit(Request{Tenant: "t", Iterations: -1, Epsilon: &e}); err == nil {
		t.Error("negative iterations admitted")
	}
	if _, err := svc.Submit(Request{Tenant: "ghost", Epsilon: &e}); !errors.Is(err, dp.ErrUnknownTenant) {
		t.Errorf("unknown tenant returned %v", err)
	}
	if m := svc.Metrics(); m.EpsilonCharged != 0 {
		t.Errorf("refused submissions charged ε: %v", m.EpsilonCharged)
	}
}

// TestZeroBudgetTenant: declaring a tenant with a zero budget pins it to
// "no queries" (every submit refused) instead of crashing the service at
// boot.
func TestZeroBudgetTenant(t *testing.T) {
	cfg, _, _, _ := fakePool(0)
	cfg.Tenants = map[string]float64{"blocked": 0, "ok": 1}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	e := 0.1
	if _, err := svc.Submit(Request{Tenant: "blocked", Epsilon: &e}); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Errorf("zero-budget tenant submit returned %v, want ErrBudgetExhausted", err)
	}
	if _, err := svc.Do(context.Background(), Request{Tenant: "ok", Epsilon: &e}); err != nil {
		t.Errorf("funded tenant: %v", err)
	}
}

// TestDoSurvivesRetentionTrim: the synchronous path must hold its query
// record, so a tiny retention window cannot lose a served result between
// submit and wait.
func TestDoSurvivesRetentionTrim(t *testing.T) {
	cfg, _, _, _ := fakePool(time.Millisecond)
	cfg.PoolCap = 2
	cfg.Warm = 2
	cfg.Retain = 1
	cfg.DefaultBudget = math.Inf(1)
	cfg.AllowUnnoised = true
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := svc.Do(context.Background(), Request{})
			if err != nil {
				t.Errorf("Do lost its result to retention: %v", err)
				return
			}
			if st.State != StateDone || st.Result == nil {
				t.Errorf("Do returned %v without a result", st.State)
			}
		}()
	}
	wg.Wait()
}

// TestRealSessionPool runs a small pool of genuine simulation sessions
// concurrently — the integration seam the fake runners skip: real MPC
// protocol runs on pooled dstress.Sessions, race-detector clean.
func TestRealSessionPool(t *testing.T) {
	job, err := cycleJob()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dstress.RunReference(job.Program, job.Graph, job.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	eng := dstress.NewSimEngine(dstress.EngineConfig{
		Group: dstress.TestGroup(), K: 1, Alpha: 0.5, OTMode: dstress.OTDealer,
	})
	svc, err := New(context.Background(), Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			return eng.Open(ctx, job, 0)
		},
		PoolCap: 2, Warm: 2,
		DefaultBudget: math.Inf(1),
		AllowUnnoised: true,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := svc.Do(context.Background(), Request{})
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			if st.State != StateDone || st.Result.Raw != exact {
				t.Errorf("query %s: state %v raw %v, want done/%d", st.ID, st.State, st.Result, exact)
			}
		}()
	}
	wg.Wait()
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.Served != n {
		t.Errorf("served %d, want %d", m.Served, n)
	}
}

// TestPoisonedSimSessionIsRecycledWhole runs genuine simulation sessions
// whose every deployment loses a node on its first query (no recovery):
// the failure poisons the session, the worker resubmits the query once on a
// fresh one, that one dies the same way, and the query is recorded failed
// with the dead node named. Every sim session carries a whole fleet — node
// goroutines, control-plane readers, a heartbeat loop — so recycling one
// must tear all of it down: after Drain, no goroutine the service started
// is left.
func TestPoisonedSimSessionIsRecycledWhole(t *testing.T) {
	job, err := cycleJob()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	sc := cluster.Scenario{
		Config: cluster.Config{
			Group: dstress.TestGroup(), K: 1, Alpha: 0.5, OTMode: cluster.OTDealer,
			HeartbeatInterval: 20 * time.Millisecond,
		},
		Job:       job,
		ChaosNode: 2,
	}
	var opened atomic.Int64
	svc, err := New(context.Background(), Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			opened.Add(1)
			return cluster.OpenHub(ctx, sc)
		},
		PoolCap: 1, Warm: 1,
		DefaultBudget: math.Inf(1),
		AllowUnnoised: true,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Do(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Err, "node 2 failed") {
		t.Errorf("query finished %s (%q), want failed naming node 2", st.State, st.Err)
	}
	if m := svc.Metrics(); m.Resubmits != 1 {
		t.Errorf("resubmits = %d, want 1", m.Resubmits)
	}
	if got := opened.Load(); got != 2 {
		t.Errorf("opened %d sessions, want 2 (original + recycled)", got)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive the drained service:\n%s",
				runtime.NumGoroutine()-before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// blockingRunner parks every query until released, counting how many are
// inside it at once — the probe for multiplexed scheduling.
type blockingRunner struct {
	mu      sync.Mutex
	inside  int
	peak    int
	entered chan struct{}
	release chan struct{}
	closed  *atomic.Int64
}

func (r *blockingRunner) Query(ctx context.Context, q dstress.QuerySpec) (*dstress.Result, error) {
	r.mu.Lock()
	r.inside++
	if r.inside > r.peak {
		r.peak = r.inside
	}
	r.mu.Unlock()
	r.entered <- struct{}{}
	defer func() {
		r.mu.Lock()
		r.inside--
		r.mu.Unlock()
	}()
	select {
	case <-r.release:
		return &dstress.Result{Raw: 1, Value: 1, Report: &dstress.Report{Transport: "fake"}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (r *blockingRunner) Close() error {
	r.closed.Add(1)
	return nil
}

// TestSessionConcurrencyMultiplexing pins the scheduler's multiplexing
// path: with PoolCap 1 and SessionConcurrency 2, two queries run inside
// the SAME pool member at the same time — one deployment, two query ids
// — without opening a second session.
func TestSessionConcurrencyMultiplexing(t *testing.T) {
	var opened, closed atomic.Int64
	r := &blockingRunner{entered: make(chan struct{}, 4), release: make(chan struct{}), closed: &closed}
	svc, err := New(context.Background(), Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			opened.Add(1)
			return r, nil
		},
		PoolCap: 1, SessionConcurrency: 2, Warm: 1,
		DefaultBudget: math.Inf(1),
		AllowUnnoised: true,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := svc.Do(context.Background(), Request{})
			if err == nil && st.State != StateDone {
				err = errors.New("query finished " + string(st.State))
			}
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-r.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("second query never entered the shared runner — scheduler is not multiplexing")
		}
	}
	r.mu.Lock()
	peak := r.peak
	r.mu.Unlock()
	if peak != 2 {
		t.Errorf("peak in-runner concurrency %d, want 2", peak)
	}
	if opened.Load() != 1 {
		t.Errorf("opened %d sessions for 2 multiplexed queries, want 1", opened.Load())
	}
	close(r.release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("multiplexed query failed: %v", err)
		}
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if closed.Load() != 1 {
		t.Errorf("shared runner closed %d times at drain, want exactly 1", closed.Load())
	}
}

// TestSessionBusyDoesNotRecycle pins the typed-refusal seam at the
// service layer: a runner that refuses with dstress.ErrSessionBusy is an
// admission signal, not a protocol failure — the session must NOT be
// poisoned and recycled, and the next query reuses it.
func TestSessionBusyDoesNotRecycle(t *testing.T) {
	var opened, closed atomic.Int64
	var busy atomic.Bool
	busy.Store(true)
	svc, err := New(context.Background(), Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			opened.Add(1)
			return busyOnceRunner{busy: &busy, closed: &closed}, nil
		},
		PoolCap: 1, Warm: 1,
		DefaultBudget: math.Inf(1),
		AllowUnnoised: true,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	st, err := svc.Do(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("busy-refused query state %v, want failed", st.State)
	}
	if closed.Load() != 0 {
		t.Errorf("ErrSessionBusy poisoned the session (closed=%d), want it kept", closed.Load())
	}
	busy.Store(false)
	st, err = svc.Do(context.Background(), Request{})
	if err != nil || st.State != StateDone {
		t.Fatalf("query after busy refusal: %v, state %v", err, st.State)
	}
	if opened.Load() != 1 {
		t.Errorf("opened %d sessions, want 1 (busy refusal must not recycle)", opened.Load())
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// busyOnceRunner refuses with ErrSessionBusy while busy is set.
type busyOnceRunner struct {
	busy   *atomic.Bool
	closed *atomic.Int64
}

func (r busyOnceRunner) Query(ctx context.Context, q dstress.QuerySpec) (*dstress.Result, error) {
	if r.busy.Load() {
		return nil, dstress.ErrSessionBusy
	}
	return &dstress.Result{Raw: 1, Value: 1, Report: &dstress.Report{Transport: "fake"}}, nil
}

func (r busyOnceRunner) Close() error {
	r.closed.Add(1)
	return nil
}

// fleetFailRunner fails queries with a *cluster.QueryError (a fleet-level
// node death) while failures remains positive, then answers normally — the
// shape of a deployment that lost a node, got recycled, and came back
// healthy.
type fleetFailRunner struct {
	failures *atomic.Int64 // remaining attempts to fail
	attempts *atomic.Int64
	closed   *atomic.Int64
}

func (r *fleetFailRunner) Query(ctx context.Context, q dstress.QuerySpec) (*dstress.Result, error) {
	r.attempts.Add(1)
	if r.failures.Add(-1) >= 0 {
		return nil, fmt.Errorf("running query: %w",
			&cluster.QueryError{Seq: 1, Node: 3, LastPhase: "iter/2/compute", Cause: "node vanished"})
	}
	return &dstress.Result{Raw: 7, Value: 7, Epsilon: q.Epsilon, Report: &dstress.Report{Transport: "fake"}}, nil
}

func (r *fleetFailRunner) Close() error { r.closed.Add(1); return nil }

// TestResubmitNoDoubleCharge pins the retry contract: a query that fails
// with a fleet-level *cluster.QueryError is automatically re-run exactly
// once on a fresh pool session, and the tenant's ε is charged exactly once
// — at Submit — no matter how many attempts the query takes.
func TestResubmitNoDoubleCharge(t *testing.T) {
	var opened, attempts, closed atomic.Int64
	var failures atomic.Int64
	failures.Store(1)
	cfg := Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			opened.Add(1)
			return &fleetFailRunner{failures: &failures, attempts: &attempts, closed: &closed}, nil
		},
		PoolCap: 1, Warm: 1,
		Tenants: map[string]float64{"t": 2},
		Logf:    func(string, ...any) {},
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := 1.0
	st, err := svc.Do(context.Background(), Request{Tenant: "t", Epsilon: &e})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil || st.Result.Raw != 7 {
		t.Fatalf("resubmitted query did not succeed: state %v result %+v err %q", st.State, st.Result, st.Err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("query ran %d attempts, want 2 (original + one resubmit)", got)
	}
	if got := opened.Load(); got != 2 {
		t.Errorf("opened %d sessions, want 2 (the failed one is recycled)", got)
	}
	status, err := svc.Ledger().Status("t")
	if err != nil {
		t.Fatal(err)
	}
	if status.Spent != 1 {
		t.Errorf("tenant charged %v for one query with one resubmit, want exactly 1", status.Spent)
	}
	m := svc.Metrics()
	if m.Resubmits != 1 {
		t.Errorf("Resubmits = %d, want 1", m.Resubmits)
	}
	if m.Served != 1 || m.Failed != 0 {
		t.Errorf("Served/Failed = %d/%d, want 1/0", m.Served, m.Failed)
	}

	// The remaining budget still covers exactly one more query: had the
	// retry been double-charged, this admission would have been refused.
	st, err = svc.Do(context.Background(), Request{Tenant: "t", Epsilon: &e})
	if err != nil || st.State != StateDone {
		t.Fatalf("second query on remaining budget: %v, state %v", err, st.State)
	}
	if _, err := svc.Submit(Request{Tenant: "t", Epsilon: &e}); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("third query beyond budget: got %v, want ErrBudgetExhausted", err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestResubmitOnlyOnce: a deployment that keeps losing nodes fails the
// query after exactly two attempts (original + the single retry), and the
// failure carried to the caller is the fleet-level QueryError.
func TestResubmitOnlyOnce(t *testing.T) {
	var opened, attempts, closed atomic.Int64
	var failures atomic.Int64
	failures.Store(100)
	cfg := Config{
		Open: func(ctx context.Context) (QueryRunner, error) {
			opened.Add(1)
			return &fleetFailRunner{failures: &failures, attempts: &attempts, closed: &closed}, nil
		},
		PoolCap: 1, Warm: 1,
		DefaultBudget: math.Inf(1),
		AllowUnnoised: true,
		Logf:          func(string, ...any) {},
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Do(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state %v, want failed after retry exhausted", st.State)
	}
	if !strings.Contains(st.Err, "node 3 failed") {
		t.Errorf("caller error %q does not carry the fleet failure", st.Err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("query ran %d attempts, want 2", got)
	}
	m := svc.Metrics()
	if m.Resubmits != 1 || m.Failed != 1 || m.Served != 0 {
		t.Errorf("Resubmits/Failed/Served = %d/%d/%d, want 1/1/0", m.Resubmits, m.Failed, m.Served)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
