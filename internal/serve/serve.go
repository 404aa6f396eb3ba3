// Package serve is the DStress query service: a standing pool of
// deployments answering many concurrent, budget-checked queries.
//
// Concurrency has two axes. Each pool member is one standing deployment (a
// facade Session) that multiplexes up to SessionConcurrency overlapping
// queries — every query runs under its own "q/<id>" tag namespace with
// independently derived crypto streams, so one fleet pipelines query i+1's
// compute under query i's communication. The pool then scales out across
// members (warm-started at boot, lazily grown to a cap) for memory
// isolation and true hardware parallelism. A work queue dispatches
// submitted queries to free member slots, and a per-tenant dp.Ledger
// performs admission control — a query that would overdraw its tenant's ε
// budget is refused at submit time, before it occupies a slot or touches
// the protocol. Drain stops admission, lets in-flight and already-admitted
// queries finish (they are charged; the releases must happen), and closes
// every pooled session.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"sync"
	"time"

	"dstress"
	"dstress/internal/cluster"
	"dstress/internal/dp"
	"dstress/internal/obs"
)

// wallPhase labels the end-to-end histogram that sits next to the phase
// table's own in the per-phase latency family.
const wallPhase = "wall"

// ErrDraining reports a submission against a service that is shutting
// down.
var ErrDraining = errors.New("serve: service is draining, not accepting new queries")

// ErrQueueFull reports a submission that found the admission queue at
// capacity — backpressure, not a budget decision; nothing is charged.
var ErrQueueFull = errors.New("serve: query queue is full, retry later")

// errZeroEpsilon rejects unnoised queries on services that meter budgets.
var errZeroEpsilon = errors.New("serve: queries must carry epsilon > 0 (a metered service always noises releases)")

// QueryRunner is one pool member: a standing deployment answering queries.
// *dstress.Session satisfies it; tests substitute fakes.
// When the service runs with SessionConcurrency > 1, the runner must admit
// that many overlapping Query calls (for a Session, SetMaxConcurrent —
// cmd/dstress-serve wires both to one flag).
type QueryRunner interface {
	Query(ctx context.Context, q dstress.QuerySpec) (*dstress.Result, error)
	Close() error
}

// Config parameterizes a Service.
type Config struct {
	// Open stands up one pool member. Required. Typically a closure over
	// SessionEngine.Open with the deployment's Job.
	Open func(ctx context.Context) (QueryRunner, error)
	// PoolCap is the maximum number of standing sessions (default 1).
	PoolCap int
	// SessionConcurrency is how many queries are dispatched concurrently
	// to each pool member (default 1). The member's runner must admit that
	// many overlapping queries — for sessions, SetMaxConcurrent. Queries
	// multiplexed on one member share its fleet's memory and handshakes;
	// a whole extra pool member costs a full deployment.
	SessionConcurrency int
	// Warm is how many sessions to open synchronously at boot; the rest
	// grow lazily under load. Clamped to [1, PoolCap].
	Warm int
	// QueueDepth caps admitted-but-undispatched queries (default 64);
	// submissions beyond it fail with ErrQueueFull and are not charged.
	QueueDepth int
	// DefaultBudget is the ε budget granted to tenants first seen at
	// submit: 0 refuses unknown tenants, +Inf admits them unmetered.
	DefaultBudget float64
	// Tenants pre-declares tenant budgets (overriding DefaultBudget).
	Tenants map[string]float64
	// DefaultIterations fills a submission's zero Iterations.
	DefaultIterations int
	// DefaultEpsilon fills a submission that does not set ε.
	DefaultEpsilon float64
	// AllowUnnoised permits explicit ε = 0 queries (exact releases —
	// correctness tests and benchmarks only; a real service refuses them).
	AllowUnnoised bool
	// Retain caps how many finished queries stay queryable via Get
	// (default 1024) so a long-running daemon's status map stays bounded.
	Retain int
	// Logf receives service events (pool growth, recycled sessions);
	// nil uses log.Printf.
	Logf func(format string, args ...any)
}

// State is a query's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Request is one query submission.
type Request struct {
	// Tenant is the budget the query is charged to ("" means "default").
	Tenant string
	// Iterations (0 = service default).
	Iterations int
	// Epsilon is the output-privacy charge. Nil means the service
	// default; explicit 0 is refused unless AllowUnnoised.
	Epsilon *float64
}

// query is one admitted query's record.
type query struct {
	id        string
	tenant    string
	spec      dstress.QuerySpec
	submitted time.Time

	done chan struct{} // closed at completion

	// Owned by the worker that runs the query; readable after done (or
	// under s.mu via snapshot).
	state    State
	started  time.Time
	finished time.Time
	result   *dstress.Result
	err      error
	// phase is the last protocol phase the running query reported entering
	// (via the obs progress callback); cleared at completion. Guarded by
	// s.mu.
	phase string
	// resubmitted marks a query already re-run once after a fleet-level
	// failure (*cluster.QueryError); a second such failure is final. The
	// resubmission reuses the ε charged at the original Submit — the
	// failed attempt released nothing, so the charge covers the retry.
	// Guarded by s.mu.
	resubmitted bool
}

// QueryStatus is a point-in-time snapshot of one query.
type QueryStatus struct {
	ID        string
	Tenant    string
	State     State
	Spec      dstress.QuerySpec
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Result is set iff State == StateDone.
	Result *dstress.Result
	// Err is set iff State == StateFailed.
	Err string
	// Phase is the query's last entered protocol phase; set only while
	// State == StateRunning.
	Phase string
}

// Metrics is a point-in-time snapshot of service counters.
type Metrics struct {
	// Submitted counts admission attempts; Refused the ones turned away
	// (budget, queue, draining, validation); Served and Failed partition
	// the admitted queries that have finished.
	Submitted, Refused, Served, Failed uint64
	// Resubmits counts queries automatically re-run on a fresh pool
	// session after a fleet-level failure (*cluster.QueryError). Each
	// resubmission reuses the ε charged at the original Submit.
	Resubmits uint64
	// FleetRecoveries sums the re-blocking recoveries performed by the
	// pool members' deployments (nodes that died mid-query and were
	// recovered in place, without failing the query).
	FleetRecoveries int
	// QueueDepth is admitted-but-undispatched queries; PoolSessions the
	// standing sessions; PoolBusy the queries being answered right now
	// (can exceed PoolSessions when sessions multiplex).
	QueueDepth, PoolSessions, PoolBusy int
	// EpsilonCharged is the lifetime ε admitted across all tenants
	// (replenishments do not reset it).
	EpsilonCharged float64
	// LatencySum/LatencyCount aggregate submit→finish latency of served
	// queries.
	LatencySum   time.Duration
	LatencyCount uint64
	// PhaseLatency holds one histogram snapshot per protocol phase
	// ("init", "compute", "communicate", "aggregate") plus "wall",
	// populated from the Report of every served query.
	PhaseLatency map[string]obs.HistogramSnapshot
	// Tenants is the per-tenant ε position at snapshot time.
	Tenants []dp.BudgetStatus
	// Gauges are point-in-time process gauges (goroutines, heap, GC
	// pause), sampled at snapshot time.
	Gauges []obs.GaugeValue
	// Fleets holds one health snapshot per pool member with a standing
	// session; sim and tcp sessions both carry a health plane.
	Fleets []FleetStatus
	// StalledQueries counts queries the fleet stall watchdogs currently
	// flag, summed across pool members.
	StalledQueries int
	// Draining is set once shutdown has begun.
	Draining bool
}

// FleetStatus pairs one pool member with its deployment's live health
// snapshot.
type FleetStatus struct {
	Member int
	Fleet  *dstress.FleetHealth
}

// Service multiplexes budget-checked queries over a pool of standing
// deployments.
type Service struct {
	cfg    Config
	ledger *dp.Ledger
	logf   func(string, ...any)

	// baseCtx governs in-flight protocol runs; canceled only when a
	// drain deadline forces abandonment.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	work chan *query

	mu       sync.Mutex
	wg       sync.WaitGroup
	draining bool
	queries  map[string]*query
	order    []string // finished query ids, oldest first, for retention
	nextID   uint64
	workers  int
	busy     int
	members  []*member // every pool member ever launched, for Fleets

	submitted, refused, served, failed, resubmits uint64

	latencySum   time.Duration
	latencyCount uint64

	// phaseHist holds one latency histogram per row of the report's phase
	// table (keyed by Phase.Name) plus wallPhase; the histograms are
	// internally atomic, so workers observe into them without holding s.mu.
	phaseHist map[string]*obs.Histogram

	// Process gauges, refreshed from the Go runtime at Metrics time.
	gaugeGoroutines, gaugeHeap, gaugeGCPause *obs.Gauge
}

// New builds the service and warm-starts cfg.Warm sessions synchronously,
// so a returned service can answer immediately and a broken deployment
// fails at boot, not at the first query.
func New(ctx context.Context, cfg Config) (*Service, error) {
	if cfg.Open == nil {
		return nil, fmt.Errorf("serve: Config.Open is required")
	}
	if cfg.PoolCap <= 0 {
		cfg.PoolCap = 1
	}
	if cfg.Warm <= 0 {
		cfg.Warm = 1
	}
	if cfg.Warm > cfg.PoolCap {
		cfg.Warm = cfg.PoolCap
	}
	if cfg.SessionConcurrency <= 0 {
		cfg.SessionConcurrency = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 1024
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Service{
		cfg:       cfg,
		ledger:    dp.NewLedger(cfg.DefaultBudget),
		logf:      logf,
		work:      make(chan *query, cfg.QueueDepth),
		queries:   make(map[string]*query),
		phaseHist: map[string]*obs.Histogram{wallPhase: obs.NewHistogram(nil)},

		gaugeGoroutines: obs.NewGauge("dstress_go_goroutines", "Live goroutines in the serving process."),
		gaugeHeap:       obs.NewGauge("dstress_go_heap_alloc_bytes", "Heap bytes currently allocated."),
		gaugeGCPause:    obs.NewGauge("dstress_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time."),
	}
	for _, ph := range new(dstress.Report).Phases() {
		s.phaseHist[ph.Name] = obs.NewHistogram(nil)
	}
	for t, b := range cfg.Tenants {
		s.ledger.Declare(t, b)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.WithoutCancel(ctx))
	for i := 0; i < cfg.Warm; i++ {
		r, err := cfg.Open(ctx)
		if err != nil {
			s.baseCancel()
			close(s.work)
			s.wg.Wait()
			return nil, fmt.Errorf("serve: warming session %d/%d: %w", i+1, cfg.Warm, err)
		}
		s.startMember(r)
	}
	return s, nil
}

// startMember registers a new pool member and launches its worker slots.
func (s *Service) startMember(r QueryRunner) {
	s.mu.Lock()
	s.workers++
	s.mu.Unlock()
	s.launchMember(r)
}

// launchMember spawns SessionConcurrency workers sharing one runner; the
// caller has already counted the member in s.workers.
func (s *Service) launchMember(r QueryRunner) {
	m := &member{r: r, refs: s.cfg.SessionConcurrency}
	s.mu.Lock()
	s.members = append(s.members, m)
	s.mu.Unlock()
	for i := 0; i < s.cfg.SessionConcurrency; i++ {
		s.wg.Add(1)
		go s.worker(m)
	}
}

// Ledger exposes the tenant accounting surface (budget status,
// replenishment) to front ends.
func (s *Service) Ledger() *dp.Ledger { return s.ledger }

// Submit validates and admits one query: the tenant's ε is charged here,
// atomically against the budget, and a query that would overdraw is
// refused without occupying anything. On success the query is queued for
// the next idle pool member and its id returned.
func (s *Service) Submit(req Request) (*QueryStatus, error) {
	q, err := s.submit(req)
	if err != nil {
		return nil, err
	}
	st := s.statusOf(q)
	return &st, nil
}

// submit is Submit returning the live record, so in-package callers can
// wait on the query itself rather than re-looking it up by id (which can
// lose a race against retention trimming).
func (s *Service) submit(req Request) (*query, error) {
	spec := dstress.QuerySpec{Iterations: req.Iterations}
	if spec.Iterations == 0 {
		spec.Iterations = s.cfg.DefaultIterations
	}
	if req.Epsilon != nil {
		spec.Epsilon = *req.Epsilon
	} else {
		spec.Epsilon = s.cfg.DefaultEpsilon
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted++
	if s.draining {
		s.refused++
		return nil, ErrDraining
	}
	if spec.Iterations < 0 {
		s.refused++
		return nil, fmt.Errorf("serve: negative iteration count %d", spec.Iterations)
	}
	if spec.Epsilon < 0 || math.IsNaN(spec.Epsilon) || math.IsInf(spec.Epsilon, 0) {
		s.refused++
		return nil, fmt.Errorf("serve: invalid epsilon %v", spec.Epsilon)
	}
	if spec.Epsilon == 0 && !s.cfg.AllowUnnoised {
		s.refused++
		return nil, errZeroEpsilon
	}
	// Check capacity before charging: every send happens under s.mu, so a
	// free slot observed here cannot vanish, and a full queue costs the
	// tenant nothing.
	if len(s.work) == cap(s.work) {
		s.refused++
		return nil, ErrQueueFull
	}
	if err := s.ledger.Spend(tenant, spec.Epsilon); err != nil {
		s.refused++
		return nil, err
	}

	s.nextID++
	q := &query{
		id:        fmt.Sprintf("q-%d", s.nextID),
		tenant:    tenant,
		spec:      spec,
		submitted: time.Now(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
	s.queries[q.id] = q
	s.work <- q
	s.growLocked()
	return q, nil
}

// statusOf snapshots a live record under the lock.
func (s *Service) statusOf(q *query) QueryStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return snapshot(q)
}

// growLocked lazily adds a pool member when demand outstrips the standing
// capacity — sessions × their concurrency, since each member answers up to
// SessionConcurrency queries at once. Opening is slow (handshakes, setup),
// so it happens off the submit path; the member registers before the open
// so concurrent bursts do not overshoot PoolCap.
func (s *Service) growLocked() {
	if s.workers >= s.cfg.PoolCap {
		return
	}
	if s.busy+len(s.work) <= s.workers*s.cfg.SessionConcurrency {
		return // a free member slot will pick the queue up
	}
	s.workers++
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		r, err := s.cfg.Open(s.baseCtx)
		if err != nil {
			s.logf("serve: growing pool: %v", err)
			s.mu.Lock()
			s.workers--
			s.mu.Unlock()
			return
		}
		s.logf("serve: pool grew to %d sessions", s.poolSize())
		s.launchMember(r)
	}()
}

func (s *Service) poolSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// member is one pool member: a standing session shared by
// SessionConcurrency worker goroutines. gen versions the session across
// recycles so only the first failure of a generation tears it down; refs
// counts the workers still attached, and the last one out closes the
// session at drain.
type member struct {
	mu   sync.Mutex
	r    QueryRunner
	gen  int
	refs int
}

// acquire returns the member's standing session (reopening it when a
// previous failure recycled it) and the generation the caller is using.
func (m *member) acquire(s *Service) (QueryRunner, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.r == nil {
		r, err := s.cfg.Open(s.baseCtx)
		if err != nil {
			return nil, 0, err
		}
		m.r = r
		s.logf("serve: pool session recycled")
	}
	return m.r, m.gen, nil
}

// poison recycles the member's session after a failed query left its
// protocol state undefined: the first worker of a generation to fail drops
// the session (a fresh one reopens lazily on the next query) and closes
// the old one — Close waits for the generation's other in-flight queries,
// none of which holds m.mu while querying, so this cannot deadlock.
func (m *member) poison(s *Service, gen int) {
	m.mu.Lock()
	if m.gen != gen || m.r == nil {
		m.mu.Unlock()
		return
	}
	old := m.r
	m.r = nil
	m.gen++
	m.mu.Unlock()
	if err := old.Close(); err != nil {
		s.logf("serve: closing failed session: %v", err)
	}
}

// release detaches one worker; the last one closes the standing session.
func (m *member) release(s *Service) {
	m.mu.Lock()
	m.refs--
	last := m.refs == 0
	r := m.r
	if last {
		m.r = nil
	}
	m.mu.Unlock()
	if last && r != nil {
		if err := r.Close(); err != nil {
			s.logf("serve: closing pool session: %v", err)
		}
	}
}

// worker answers queries on its member's shared standing session until the
// queue closes. A query that fails leaves the session in an undefined
// protocol state (Session documents that only Close is then safe), so the
// member recycles it: close now, reopen lazily when the next query arrives
// — a persistently broken deployment then fails queries with a clear error
// instead of wedging the service. The exception is the typed admission
// refusal ErrSessionBusy: by contract it charged the session nothing and
// touched no protocol state, so the session stays standing for the queries
// already multiplexed on it.
func (s *Service) worker(m *member) {
	defer s.wg.Done()
	defer m.release(s)
	for q := range s.work {
		s.mu.Lock()
		s.busy++
		q.state = StateRunning
		q.started = time.Now()
		s.mu.Unlock()

		r, gen, err := m.acquire(s)
		if err != nil {
			s.finish(q, nil, fmt.Errorf("serve: reopening pool session: %w", err))
			continue
		}
		// The protocol runtime reports each phase it enters through the
		// context's progress callback; publish it on the query record so
		// GET /v1/queries/{id} shows live progress while running.
		ctx := obs.WithProgress(s.baseCtx, func(phase string) {
			s.mu.Lock()
			if q.state == StateRunning {
				q.phase = phase
			}
			s.mu.Unlock()
		})
		res, err := r.Query(ctx, q.spec)
		if err != nil && !errors.Is(err, dstress.ErrSessionBusy) {
			m.poison(s, gen)
			// A fleet-level death (*cluster.QueryError) is the one
			// failure worth retrying automatically: the query itself was
			// sound, a node under it died. The member was just poisoned,
			// so the retry lands on a fresh session — either this
			// member's lazily reopened deployment or another member's.
			// The tenant's ε was charged at Submit and the failed attempt
			// released nothing, so the retry is NOT re-charged.
			var qe *cluster.QueryError
			if errors.As(err, &qe) && s.resubmit(q) {
				s.logf("serve: query %s lost node %d (%v); resubmitting once on a fresh session", q.id, qe.Node, err)
				continue
			}
		}
		s.finish(q, res, err)
	}
}

// resubmit requeues a fleet-failed query for one more attempt. It returns
// false — leaving the caller to record the failure — when the query
// already used its retry, the service is draining (the queue is closed),
// or the queue is full.
func (s *Service) resubmit(q *query) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q.resubmitted || s.draining || len(s.work) == cap(s.work) {
		return false
	}
	q.resubmitted = true
	q.state = StateQueued
	q.phase = ""
	s.busy--
	s.resubmits++
	s.work <- q
	return true
}

// finish records a query's outcome and bookkeeping.
func (s *Service) finish(q *query, res *dstress.Result, err error) {
	if err == nil && res != nil && res.Report != nil {
		for _, ph := range res.Report.Phases() {
			s.phaseHist[ph.Name].Observe(ph.Time)
		}
		s.phaseHist[wallPhase].Observe(res.Report.WallTime)
	}
	s.mu.Lock()
	s.busy--
	q.finished = time.Now()
	q.phase = ""
	if err != nil {
		q.state = StateFailed
		q.err = err
		s.failed++
	} else {
		q.state = StateDone
		q.result = res
		s.served++
		s.latencySum += q.finished.Sub(q.submitted)
		s.latencyCount++
	}
	s.order = append(s.order, q.id)
	for len(s.order) > s.cfg.Retain {
		delete(s.queries, s.order[0])
		s.order = s.order[1:]
	}
	s.mu.Unlock()
	close(q.done)
}

// snapshot copies a query's current state; callers hold s.mu (or the
// query is finished, after which its fields are immutable).
func snapshot(q *query) QueryStatus {
	st := QueryStatus{
		ID: q.id, Tenant: q.tenant, State: q.state, Spec: q.spec,
		Submitted: q.submitted, Started: q.started, Finished: q.finished,
		Result: q.result, Phase: q.phase,
	}
	if q.err != nil {
		st.Err = q.err.Error()
	}
	return st
}

// Get returns a snapshot of a submitted query's status.
func (s *Service) Get(id string) (QueryStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	if !ok {
		return QueryStatus{}, false
	}
	return snapshot(q), true
}

// Wait blocks until the query finishes (or ctx expires) and returns its
// final status. Finished queries stay retrievable for the most recent
// Retain completions; prefer Do for submit-and-wait, which holds the
// record and cannot lose it to retention.
func (s *Service) Wait(ctx context.Context, id string) (QueryStatus, error) {
	s.mu.Lock()
	q, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return QueryStatus{}, fmt.Errorf("serve: unknown query %q", id)
	}
	return s.waitOn(ctx, q)
}

// waitOn blocks on the record itself.
func (s *Service) waitOn(ctx context.Context, q *query) (QueryStatus, error) {
	select {
	case <-q.done:
	case <-ctx.Done():
		return QueryStatus{}, ctx.Err()
	}
	return s.statusOf(q), nil
}

// Do submits one query and waits for its result: the synchronous path.
func (s *Service) Do(ctx context.Context, req Request) (QueryStatus, error) {
	q, err := s.submit(req)
	if err != nil {
		return QueryStatus{}, err
	}
	return s.waitOn(ctx, q)
}

// Fleets snapshots the health plane of every pool member with a standing
// session (the runner type-asserts to Fleet(); a dstress.Session on either
// engine has one). Members whose session was recycled away and not yet
// reopened contribute nothing. Member indices are launch order and stable
// across the service's lifetime.
func (s *Service) Fleets() []FleetStatus {
	s.mu.Lock()
	members := append([]*member(nil), s.members...)
	s.mu.Unlock()
	out := []FleetStatus{}
	for i, m := range members {
		m.mu.Lock()
		r := m.r
		m.mu.Unlock()
		f, ok := r.(interface{ Fleet() *dstress.FleetHealth })
		if !ok {
			continue
		}
		if fh := f.Fleet(); fh != nil {
			out = append(out, FleetStatus{Member: i, Fleet: fh})
		}
	}
	return out
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() Metrics {
	phases := make(map[string]obs.HistogramSnapshot, len(s.phaseHist))
	for ph, h := range s.phaseHist {
		phases[ph] = h.Snapshot()
	}
	tenants := s.ledger.Statuses()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gaugeGoroutines.Set(float64(runtime.NumGoroutine()))
	s.gaugeHeap.Set(float64(ms.HeapAlloc))
	s.gaugeGCPause.Set(float64(ms.PauseTotalNs) / 1e9)
	gauges := []obs.GaugeValue{
		s.gaugeGoroutines.Snapshot(),
		s.gaugeHeap.Snapshot(),
		s.gaugeGCPause.Snapshot(),
	}
	fleets := s.Fleets()
	stalled, recoveries := 0, 0
	for _, f := range fleets {
		stalled += len(f.Fleet.Stalled)
		recoveries += f.Fleet.Recoveries
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Submitted: s.submitted, Refused: s.refused,
		Served: s.served, Failed: s.failed,
		Resubmits:       s.resubmits,
		FleetRecoveries: recoveries,
		QueueDepth:      len(s.work), PoolSessions: s.workers, PoolBusy: s.busy,
		EpsilonCharged: s.ledger.TotalCharged(),
		LatencySum:     s.latencySum, LatencyCount: s.latencyCount,
		PhaseLatency:   phases,
		Tenants:        tenants,
		Gauges:         gauges,
		Fleets:         fleets,
		StalledQueries: stalled,
		Draining:       s.draining,
	}
}

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the service down gracefully: new submissions are refused
// immediately with ErrDraining, in-flight and already-admitted queries run
// to completion (their ε is charged; the releases must happen), and every
// pooled session is closed. If ctx expires first, the remaining protocol
// runs are aborted through their contexts, the sessions are still closed,
// and the ctx error is returned. Idempotent; concurrent calls all wait.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		// Safe: every send holds s.mu and checks draining first.
		close(s.work)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel() // abort in-flight protocol runs
		<-done
		return fmt.Errorf("serve: drain aborted in-flight queries: %w", ctx.Err())
	}
}
