package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dstress/internal/dp"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// ErrSessionBusy reports a Query refused by the session's admission limit:
// MaxConcurrent queries (default 1) were already in flight. The refusal is
// fail-fast and charges nothing — no ε is spent and no protocol message is
// sent — so a pool scheduler can immediately retry on another session.
// Queries on one session multiplex safely (each runs under its own
// "q/<id>" tag namespace with independently derived crypto streams); the
// limit exists to bound memory and CPU contention, not to protect protocol
// state. Raise it with SetMaxConcurrent.
var ErrSessionBusy = errors.New("cluster: session is busy answering another query")

// ErrSessionClosed reports a Query against a session after Close, or after
// a failed query aborted it.
var ErrSessionClosed = errors.New("cluster: session is closed")

// Query parameterizes one query against a standing Session.
type Query struct {
	// Iterations is the number of computation+communication steps; 0 uses
	// the scenario's default.
	Iterations int
	// Epsilon is the output-privacy budget charged for this query's
	// release. The session's accountant must have at least this much
	// left, or the query is refused without running. 0 disables noise and
	// charges nothing (correctness tests only).
	Epsilon float64
}

// Result is the outcome of one query.
type Result struct {
	// Raw is the opened (noised) aggregate in raw fixed-point units, agreed
	// by every aggregation-block member.
	Raw int64
	// Value is Scenario.Decode(Raw), or float64(Raw) without a decoder.
	Value float64
	// Epsilon is the privacy budget this release consumed.
	Epsilon float64
	// Report describes the execution that produced the result.
	Report *Report
}

// Report summarizes one query with the same fields however the nodes were
// started. It is the fold of the nodes' rows (vertex.Fold: the per-phase
// wall times and traffic of the paper's Figures 3–6, setup cost, traffic
// per node, circuit sizes, recoveries — see its fields for how each folds;
// each phase's duration is the slowest node's) plus what only the driver
// knows.
type Report struct {
	vertex.Report
	// Transport is "sim" for an in-process fleet, "tcp" for daemons.
	Transport string
	// Nodes is the number of participants.
	Nodes int
	// WallTime is the end-to-end duration observed by the driver, from job
	// dispatch to the last node's report.
	WallTime time.Duration
	// NodePhases is the per-node table behind the folded numbers — one row
	// per live participant, sorted by node id. "sim" nodes share one
	// process's cores, so a straggler there says as much about scheduling
	// as about the node.
	NodePhases []vertex.NodeResult
	// RecoveryEvents is the coordinator-side timeline (death, reblock, and
	// resume events) of the re-blockings Recoveries counts: those that
	// happened while this query was in flight. Empty unless the scenario
	// enabled Recover and a node actually died.
	RecoveryEvents []obs.FlightEvent
}

// SlowestNodes returns the straggler per phase (init, compute, communicate,
// aggregate), in execution order; nil when the report has no per-node
// table.
func (r *Report) SlowestNodes() []vertex.PhaseLeader { return vertex.SlowestNodes(r.NodePhases) }

// Session is a standing deployment answering a sequence of budgeted
// queries — the paper's deployment story (§4.5): a regulator poses a few
// queries per year against a long-lived distributed graph, each charged to
// an ε budget. Open did the one-time work — registration, trusted-party
// setup, and handing every node the deployment it builds its engine from;
// each Query then only refreshes shares and runs the protocol: the
// pairwise OT handshakes carry over between queries, while each query joins
// its own GMW sessions under its own tag namespace.
//
// A session multiplexes queries: each dispatches a jobMsg under its own
// query id ("q/<id>" tag namespace, crypto streams derived per query), and
// a per-node reader routes the reports back by id, so overlapping queries
// never touch each other's messages. Admission is bounded by MaxConcurrent
// (default 1): a Query beyond the limit fails fast with ErrSessionBusy
// rather than blocking or queueing, so a pool scheduler can move on to
// another session.
type Session struct {
	c     *Coordinator
	conns map[network.NodeID]*nodeConn
	ids   []network.NodeID
	setup *trustedparty.SetupResult
	// nodes are the session's node goroutines when its fleet was started
	// in this process (OpenLoopback, OpenHub); nil when they run elsewhere.
	nodes *localNodes

	// dispatchMu serializes whole-fleet job dispatches: every node must see
	// the session's jobs in the same order, and gob encoders are not
	// otherwise concurrency-safe.
	dispatchMu sync.Mutex

	mu            sync.Mutex
	idle          sync.Cond // signalled when inflight drops
	inflight      int
	maxConcurrent int
	acct          *dp.Accountant // an infinite budget when unmetered
	queries       int            // queries admitted; the last one's id
	pending       map[int]chan doneMsg
	closed        bool

	// --- Failure-recovery plane (active when the scenario sets Recover).
	// tp and regs are retained from Open so a recovery can re-run the
	// trusted party's blocking over the surviving registrations.
	tp   *trustedparty.TrustedParty
	regs []trustedparty.NodeRegistration
	// recMu single-flights re-blocking: several collect loops (and death
	// notices) can observe the same casualty concurrently, and exactly one
	// recovery must win.
	recMu sync.Mutex
	// deathCh carries read-loop death notices to whichever collect loop
	// selects first. Buffered to fleet size so readers never block.
	deathCh chan network.NodeID
	// ckpts is the table of the nodes' sealed barrier snapshots (opaque to
	// the coordinator). Under mu: per-seq attempt numbers and queries (to
	// rebuild jobs on resume), the recovery counter, and the recovery event
	// log.
	ckpts      vertex.Checkpoints
	attempts   map[int]int
	specs      map[int]Query
	recoveries int
	recEvents  []obs.FlightEvent

	// Health plane state: the live fleet model fed by heartbeats and the
	// pinger goroutine's stop signal.
	health *fleetHealth
	hbStop chan struct{}
	hbOnce sync.Once
	hbDone chan struct{}

	// Reader failure state: any control-plane read error is fatal for the
	// whole session (fail-stop), so the first one is recorded — with the
	// connection it happened on — and readDone closed to wake every
	// in-flight query.
	readOnce sync.Once
	readErr  error
	failNode network.NodeID
	readDone chan struct{}
}

// SetMaxConcurrent sets the admission limit: how many queries may be in
// flight on this session at once (minimum 1). The default of 1 keeps the
// classic one-query-at-a-time behavior; raising it lets a standing fleet
// answer several queries concurrently, pipelining one query's compute under
// another's communication. Already-admitted queries are never evicted by
// lowering the limit.
func (s *Session) SetMaxConcurrent(n int) {
	s.mu.Lock()
	s.maxConcurrent = max(n, 1)
	s.mu.Unlock()
}

// Query runs one budgeted query against the standing deployment. A query
// submitted while MaxConcurrent queries are already in flight is refused
// with ErrSessionBusy; an admitted one is charged q.Epsilon first, and
// refused — without executing anything — when the charge would overdraw
// the budget (dp.ErrBudgetExhausted). Canceling ctx aborts the query; the
// session is then aborted and only Close is safe. A node death under
// Scenario.Recover is NOT such an abort: the deployment re-blocks around the
// casualty, the query resumes from its last checkpoint barrier and returns
// normally (Report.Recoveries counts the deaths survived), and the session
// stays usable for further queries on the shrunken fleet.
//
// A trace on ctx is stamped with the query's "q/<id>" tag and receives the
// nodes' span tables and protocol counters when the query completes.
func (s *Session) Query(ctx context.Context, q Query) (*Result, error) {
	if q.Iterations == 0 {
		q.Iterations = s.c.sc.Iterations
	}
	seq, ch, err := s.admit(q)
	if err != nil {
		return nil, err
	}
	defer func() {
		s.ckpts.Drop(seq)
		if s.c.hub != nil {
			// The engines retire their own namespace on success; the hub-wide
			// sweep also covers failed and superseded runs and dead nodes.
			s.c.hub.net.RetireTagPrefix(network.Tag("q", seq))
		}
		s.mu.Lock()
		delete(s.pending, seq)
		delete(s.attempts, seq)
		delete(s.specs, seq)
		s.inflight--
		s.idle.Broadcast()
		s.mu.Unlock()
	}()

	// Every span recorded on the caller's trace from here on carries
	// "q/<id>"; the nodes stamp their own span tables with the same tag.
	tr := obs.From(ctx)
	tr.SetQuery(network.Tag("q", seq))
	// Register with the health plane: the stall watchdog tracks the query
	// from dispatch, and a driver-side progress callback (if the context
	// carries one) receives the fleet's slowest-node phase live.
	s.health.watch(seq, obs.ProgressFrom(ctx))
	defer s.health.unwatch(seq)

	res, err := s.runQuery(ctx, tr, q, seq, ch)
	if err != nil {
		// The session is unusable: release the fleet so every node fails
		// fast instead of waiting on dead counterparties.
		s.abort()
		return nil, err
	}
	return res, nil
}

// admit validates q, takes an admission slot, charges q's ε and registers
// the query under the next id, whose reports the readers deliver on ch.
func (s *Session) admit(q Query) (int, chan doneMsg, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, nil, ErrSessionClosed
	case s.inflight >= s.maxConcurrent:
		return 0, nil, ErrSessionBusy
	case q.Iterations < 0:
		return 0, nil, fmt.Errorf("cluster: negative iteration count %d", q.Iterations)
	case q.Epsilon < 0 || math.IsNaN(q.Epsilon) || math.IsInf(q.Epsilon, 0):
		return 0, nil, fmt.Errorf("cluster: invalid epsilon %v", q.Epsilon)
	}
	if err := s.acct.Spend(q.Epsilon); err != nil {
		return 0, nil, err
	}
	s.inflight++
	s.queries++
	// Buffered past fleet size so the per-node readers never block on a
	// collect loop that is busy recovering: with re-blocking, one query can
	// see up to one report per node per attempt.
	ch := make(chan doneMsg, 4*len(s.ids))
	s.pending[s.queries] = ch
	s.specs[s.queries] = q
	s.attempts[s.queries] = 1
	return s.queries, ch, nil
}

// Fleet returns a live snapshot of the standing fleet's health plane:
// per-node heartbeat age, clock offset, runtime stats, open spans, and the
// in-flight/stalled query sets. An in-process fleet's nodes beat over
// in-memory pipes, and share the driver's clock.
func (s *Session) Fleet() *FleetHealth {
	return s.health.snapshot(time.Now())
}

// Remaining returns the unspent ε budget (+Inf when unmetered).
func (s *Session) Remaining() float64 { return s.acct.Remaining() }

// Spent returns the ε the session's queries consumed.
func (s *Session) Spent() float64 { return s.acct.Spent() }

// mergeTrace folds one node's span table and protocol counters into the
// caller's trace (a nil trace is a no-op), rebasing the spans onto the
// driver's timeline: shift = nodeEpoch − offset − driverEpoch, with the
// health plane's estimate of the node's clock offset — zero while its first
// heartbeat is out, and on an in-process fleet, which shares one clock.
func (s *Session) mergeTrace(tr *obs.Trace, d doneMsg) {
	if tr == nil {
		return
	}
	shift := d.Epoch - tr.Epoch().UnixNano()
	if s.c.hub == nil {
		shift -= int64(s.health.clockOffset(d.ID))
	}
	tr.AddSpans(obs.ShiftSpans(d.Spans, shift))
	tr.AddCounters(d.Counters)
}
