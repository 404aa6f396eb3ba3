package dstress

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"dstress/internal/dp"
	"dstress/internal/obs"
)

// ErrSessionBusy reports a Query refused by the session's admission limit:
// MaxConcurrent queries (default 1) were already in flight. The refusal is
// fail-fast and charges nothing — no ε is spent and no protocol message is
// sent — so a pool scheduler can immediately retry on another session.
// Queries on one session multiplex safely (each runs under its own
// "q/<id>" tag namespace with independently derived crypto streams); the
// limit exists to bound memory and CPU contention, not to protect protocol
// state. Raise it with SetMaxConcurrent.
var ErrSessionBusy = errors.New("dstress: session is busy answering another query")

// ErrSessionClosed reports a Query against a session after Close.
var ErrSessionClosed = errors.New("dstress: session is closed")

// QuerySpec parameterizes one query against a standing Session.
type QuerySpec struct {
	// Iterations is the number of computation+communication steps; 0 uses
	// the session's default (the Job passed to Open).
	Iterations int
	// Epsilon is the output-privacy budget charged for this query's
	// release. The session's accountant must have at least this much
	// left, or the query is refused without running. 0 disables noise and
	// charges nothing (correctness tests only).
	Epsilon float64
}

// sessionBackend is a standing deployment that can answer queries; both
// engines provide one (fleetBackend). seq is the session's query id: the
// backend namespaces every protocol message of the query under the
// "q/<seq>" tag root, so overlapping calls (distinct seqs) never collide on
// the shared transports.
type sessionBackend interface {
	query(ctx context.Context, seq int, q QuerySpec) (int64, *Report, error)
	// fleet reports the deployment's live health plane: per-node heartbeat
	// state, clock estimates, and in-flight query progress.
	fleet() *FleetHealth
	close() error
}

// Session is a standing deployment answering a sequence of budgeted
// queries — the paper's deployment story (§4.5): a regulator poses a few
// queries per year against a long-lived distributed graph, each charged to
// an ε budget. Opening the session performs the one-time work (trusted-
// party setup, GMW sessions with their OT handshakes, circuit compilation,
// fixed-base tables); each Query then only refreshes shares and runs the
// protocol, so the Init phase that dominates short runs is paid once.
//
// A session multiplexes queries: each runs under its own "q/<id>" tag
// namespace with crypto streams derived per query from the standing
// handshakes, so overlapping queries never touch each other's messages.
// Admission is bounded by MaxConcurrent (default 1): a Query beyond the
// limit fails fast with ErrSessionBusy rather than blocking or queueing, so
// a pool scheduler can move on to another session. Close releases the
// deployment, waiting first for all in-flight queries to finish (cancel the
// queries' contexts to hurry them along).
type Session struct {
	mu            sync.Mutex
	idle          sync.Cond // signalled when inflight drops
	inflight      int
	maxConcurrent int
	backend       sessionBackend
	acct          *dp.Accountant // nil = unmetered
	decode        func(int64) float64
	defaults      QuerySpec
	queries       int // queries started; query id of the next Query
	closed        bool
}

func newSession(b sessionBackend, job Job, budget float64) *Session {
	s := &Session{
		backend:       b,
		maxConcurrent: 1,
		decode:        job.Decode,
		defaults:      QuerySpec{Iterations: job.Iterations, Epsilon: job.Epsilon},
	}
	s.idle.L = &s.mu
	if budget > 0 {
		s.acct = dp.NewAccountant(budget)
	}
	return s
}

// SetMaxConcurrent sets the admission limit: how many queries may be in
// flight on this session at once (minimum 1). The default of 1 keeps the
// classic one-query-at-a-time behavior; raising it lets a standing fleet
// answer several queries concurrently, pipelining one query's compute under
// another's communication. Already-admitted queries are never evicted by
// lowering the limit.
func (s *Session) SetMaxConcurrent(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.maxConcurrent = n
	s.mu.Unlock()
}

// Query runs one budgeted query against the standing deployment. It
// charges q.Epsilon to the session's accountant first and refuses —
// without executing anything — when the charge would overdraw the budget
// (dp.ErrBudgetExhausted). A query submitted while MaxConcurrent queries
// are already in flight is refused with ErrSessionBusy (and not charged).
// Canceling ctx aborts the query; the session is then in an undefined
// protocol state and only Close is safe. A node death under
// EngineConfig.Recover is NOT such an abort: the deployment re-blocks
// around the casualty, the query resumes from its last checkpoint barrier
// and returns normally (Report.Recoveries counts the deaths survived), and
// the session stays usable for further queries on the shrunken fleet.
func (s *Session) Query(ctx context.Context, q QuerySpec) (*Result, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if s.inflight >= s.maxConcurrent {
		s.mu.Unlock()
		return nil, ErrSessionBusy
	}
	if q.Iterations == 0 {
		q.Iterations = s.defaults.Iterations
	}
	if q.Iterations < 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("dstress: negative iteration count %d", q.Iterations)
	}
	if q.Epsilon < 0 || math.IsNaN(q.Epsilon) || math.IsInf(q.Epsilon, 0) {
		s.mu.Unlock()
		return nil, fmt.Errorf("dstress: invalid epsilon %v", q.Epsilon)
	}
	if s.acct != nil {
		if err := s.acct.Spend(q.Epsilon); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	s.inflight++
	s.queries++
	seq := s.queries
	s.mu.Unlock()

	// Stamp the caller's trace (if any) with this query's sequence number:
	// every span recorded from here on carries "q/<n>", keeping multi-query
	// sessions separable in one trace file. The nodes stamp their own span
	// tables with the same number from the job's Seq field, and namespace
	// the query's wire traffic under the same "q/<n>".
	obs.From(ctx).SetQuery(fmt.Sprintf("q/%d", seq))

	raw, rep, err := s.backend.query(ctx, seq, q)

	s.mu.Lock()
	s.inflight--
	s.idle.Broadcast()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	value := float64(raw)
	if s.decode != nil {
		value = s.decode(raw)
	}
	return &Result{Raw: raw, Value: value, Epsilon: q.Epsilon, Report: rep}, nil
}

// Fleet returns a live snapshot of the deployment's health plane: per-node
// heartbeat freshness, clock-offset estimates, runtime stats, and in-flight
// query progress as seen by the coordinator. Both engines have one: a
// simulated deployment's nodes beat over in-memory pipes, and share the
// driver's clock.
func (s *Session) Fleet() *FleetHealth {
	return s.backend.fleet()
}

// Remaining returns the unspent ε budget (+Inf when unmetered).
func (s *Session) Remaining() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acct == nil {
		return math.Inf(1)
	}
	return s.acct.Remaining()
}

// Spent returns the consumed ε budget.
func (s *Session) Spent() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acct == nil {
		return 0
	}
	return s.acct.Spent()
}

// Close tears the standing deployment down, waiting first for all
// in-flight queries to finish so the protocol is never torn down under a
// live run. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.backend.close()
}
