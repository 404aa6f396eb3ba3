package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"dstress/internal/dp"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// Coordinator serves the control plane for one deployment: it collects node
// registrations, plays the trusted party of §3.4, and then drives one or
// more queries through the standing fleet.
type Coordinator struct {
	sc   Scenario
	prog *vertex.Program
	ln   net.Listener
	// hub holds what the nodes of an in-process fleet share with their
	// driver (OpenHub); nil when the nodes are daemons.
	hub *hubFleet
}

// registerTimeout bounds the whole registration phase: if fewer than N
// nodes have connected and registered by then, Open fails with a clear
// error instead of hanging a partially launched fleet forever. A deadline
// on Open's context tightens it further. Queries themselves are bounded
// only by their own context.
const registerTimeout = 2 * time.Minute

// NewCoordinator validates the scenario and starts listening on ctrlAddr
// ("127.0.0.1:0" picks an ephemeral port; see Addr) for node daemons.
func NewCoordinator(ctrlAddr string, sc Scenario) (*Coordinator, error) {
	if sc.Spec == nil {
		return nil, fmt.Errorf("cluster: node daemons need a Spec (closures cannot cross the control plane); register the program and name it")
	}
	prog, err := sc.Spec.Build()
	if err != nil {
		return nil, err
	}
	c, err := newCoordinator(sc, prog)
	if err != nil {
		return nil, err
	}
	if c.ln, err = net.Listen("tcp", ctrlAddr); err != nil {
		return nil, fmt.Errorf("cluster: control listen %s: %w", ctrlAddr, err)
	}
	return c, nil
}

// newCoordinator validates the scenario against its compiled program; the
// caller attaches the control listener.
func newCoordinator(sc Scenario, prog *vertex.Program) (*Coordinator, error) {
	if sc.Group == nil {
		return nil, fmt.Errorf("cluster: scenario needs a group")
	}
	if sc.Graph == nil {
		return nil, fmt.Errorf("cluster: scenario has no graph")
	}
	if err := sc.Graph.Finalize(); err != nil {
		return nil, err
	}
	if sc.Graph.N() < sc.K+1 {
		return nil, fmt.Errorf("cluster: need at least K+1 = %d nodes, got %d", sc.K+1, sc.Graph.N())
	}
	if sc.Iterations < 0 {
		return nil, fmt.Errorf("cluster: negative iteration count %d", sc.Iterations)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if _, err := sc.engineConfig().TransferParams(prog.MsgBits); err != nil {
		return nil, err
	}
	if sc.HeartbeatInterval <= 0 {
		sc.HeartbeatInterval = defaultHeartbeat
	}
	if sc.StallWindow <= 0 {
		sc.StallWindow = defaultStallWindow
	}
	return &Coordinator{sc: sc, prog: prog}, nil
}

// Addr returns the control-plane address nodes should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Run drives one full single-shot execution (RunOnce). It blocks until
// every node has reported (or a control-plane error / context
// cancellation).
func (c *Coordinator) Run(ctx context.Context) (*Result, error) { return RunOnce(ctx, c.Open) }

// RunOnce is a single-shot execution: open a session, answer its
// scenario's default query once, close it.
func RunOnce(ctx context.Context, open func(context.Context) (*Session, error)) (*Result, error) {
	sess, err := open(ctx)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Query(ctx, Query{Epsilon: sess.c.sc.Epsilon})
}

type nodeConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	addr string
	reg  trustedparty.NodeRegistration

	// writeMu serializes encodes on this connection: heartbeat pings
	// interleave with job dispatches (dispatchMu still orders whole-fleet
	// dispatches; this leaf lock only keeps individual gob messages whole).
	writeMu sync.Mutex
}

// send encodes one control message under the connection's write lock.
func (nc *nodeConn) send(m ctrlMsg) error {
	nc.writeMu.Lock()
	defer nc.writeMu.Unlock()
	return nc.enc.Encode(m)
}

// readLoop is the per-node message router: it owns node id's decoder for
// the session's lifetime, folds heartbeat replies into the health model,
// archives checkpoint blobs, and delivers each report to the query that is
// waiting on its Seq. Without recovery, any decode error, identity
// mismatch, or report for an unknown query kills the session; with it, a
// decode error becomes a death notice and stray reports from superseded
// attempts are dropped.
func (s *Session) readLoop(id network.NodeID, nc *nodeConn) {
	for {
		var m nodeMsg
		if err := nc.dec.Decode(&m); err != nil {
			if s.noteDeath(id, err) {
				return
			}
			s.failReads(id, fmt.Errorf("cluster: node %d: reading report: %w", id, err))
			return
		}
		if m.Beat != nil {
			s.health.observeBeat(id, m.Beat, time.Now())
			continue
		}
		if m.Ckpt != nil {
			if s.c.sc.Recover {
				s.ckpts.Store(m.Ckpt.Seq, id, m.Ckpt.Barrier, m.Ckpt.Blob)
			}
			continue
		}
		if m.Done == nil {
			s.failReads(id, fmt.Errorf("cluster: node %d sent an empty message", id))
			return
		}
		d := *m.Done
		if d.ID != id {
			s.failReads(id, fmt.Errorf("cluster: report id %d on node %d's connection", d.ID, id))
			return
		}
		s.mu.Lock()
		ch := s.pending[d.Seq]
		s.mu.Unlock()
		if ch == nil {
			if s.c.sc.Recover {
				// A superseded attempt's report can trail in after the
				// resumed attempt already completed the query.
				slog.Debug("cluster: dropping report for inactive query",
					"node", id, "query", d.Seq, "attempt", d.Attempt)
				continue
			}
			s.failReads(id, fmt.Errorf("cluster: node %d reported unknown query %d", id, d.Seq))
			return
		}
		ch <- d // buffered past fleet size; see admit
	}
}

// noteDeath routes a control-connection loss into the recovery plane.
// Returns false when recovery is off or the session is closing (normal
// teardown breaks connections too) — the caller then fail-stops as before.
func (s *Session) noteDeath(id network.NodeID, err error) bool {
	if !s.c.sc.Recover {
		return false
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false
	}
	slog.Warn("cluster: node control connection lost", "node", id, "error", err)
	select {
	case s.deathCh <- id:
	default: // a notice for this fleet state is already queued
	}
	return true
}

func (s *Session) failReads(id network.NodeID, err error) {
	s.readOnce.Do(func() {
		s.failNode = id
		s.readErr = err
		close(s.readDone)
	})
}

// heartbeatLoop is the session's pinger and watchdog: one immediate ping
// round primes the clock estimators, then every interval it probes the
// fleet and checks in-flight queries for stalls. It runs until abort/Close.
func (s *Session) heartbeatLoop() {
	defer close(s.hbDone)
	s.pingAll()
	t := time.NewTicker(s.c.sc.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.hbStop:
			return
		case <-t.C:
			s.pingAll()
			s.health.checkStalls(time.Now(), s.c.sc.StallWindow)
		}
	}
}

// pingAll sends one heartbeat probe to every node. A failed send is only
// logged: the node's read loop owns failure detection, and the silence
// shows up as heartbeat age.
func (s *Session) pingAll() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// Snapshot under mu: a recovery shrinks ids/conns concurrently.
	conns := make([]*nodeConn, 0, len(s.ids))
	ids := make([]network.NodeID, 0, len(s.ids))
	for _, id := range s.ids {
		ids = append(ids, id)
		conns = append(conns, s.conns[id])
	}
	s.mu.Unlock()
	now := time.Now().UnixNano()
	for i, nc := range conns {
		if err := nc.send(ctrlMsg{Ping: &pingMsg{T1: now}}); err != nil {
			slog.Debug("cluster heartbeat ping failed", "node", ids[i], "err", err)
		}
	}
}

// stopHeartbeat ends the pinger; safe to call more than once.
func (s *Session) stopHeartbeat() {
	s.hbOnce.Do(func() { close(s.hbStop) })
}

// postMortem names the dead node after a query failure: probe the whole
// fleet once more and watch who answers. Live nodes reply to a ping within
// a round trip, but under heavy load a slow survivor can take much longer
// than any fixed window — so instead of a deadline alone, the poll waits
// for the silent set to SETTLE: only once it has not shrunk for a couple
// of heartbeat intervals is whoever remains silent called the casualty
// (the regular heartbeat loop keeps re-probing in the background, so a
// live straggler's eventual reply shrinks the set and resets the clock).
// hint is the node the caller's evidence points at: its control
// connection broke, or (reported) its own report carried the failure. Once
// the set settles, blame picks the casualty from it. Returns false when
// everyone answered (the failure was a protocol error or a caller abort,
// not a death) — the caller then keeps its direct attribution.
func (s *Session) postMortem(hint network.NodeID, reported bool) (network.NodeID, bool) {
	probe := time.Now()
	s.pingAll()
	settle := 2 * s.c.sc.HeartbeatInterval
	if settle < 150*time.Millisecond {
		settle = 150 * time.Millisecond
	}
	if settle > time.Second {
		settle = time.Second
	}
	limit := 6 * s.c.sc.HeartbeatInterval
	if limit < 2*time.Second {
		limit = 2 * time.Second
	}
	if limit > 5*time.Second {
		limit = 5 * time.Second
	}
	deadline := probe.Add(limit)
	lastLen := -1
	lastShrink := probe
	for {
		dead := s.health.silentSince(probe)
		if len(dead) == 0 {
			return 0, false
		}
		now := time.Now()
		if len(dead) != lastLen {
			lastLen, lastShrink = len(dead), now
		}
		if now.Sub(lastShrink) >= settle || !now.Before(deadline) {
			return blame(dead, hint, reported), true
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// blame names the casualty from the settled silent set (silent longest
// first): a hint whose connection broke while it stays silent, however many
// loaded survivors have not answered yet; else the longest silent node,
// passing over a hint that reported, and so proved itself alive, unless no
// other node stays silent.
func blame(silent []network.NodeID, hint network.NodeID, reported bool) network.NodeID {
	if !reported && slices.Contains(silent, hint) {
		return hint
	}
	for _, id := range silent {
		if !reported || id != hint {
			return id
		}
	}
	return hint
}

// queryError assembles the health plane's enriched failure: post-mortem
// node attribution, the node's last reported phase, heartbeat staleness,
// and the flight-recorder tail (the node's own if it shipped one, the
// coordinator-side ring otherwise). A reporter's own phase and flight
// describe the reporter, so they are dropped when another node is named.
func (s *Session) queryError(seq int, node network.NodeID, reported bool, lastPhase string, events []obs.FlightEvent, cause string) error {
	if dead, ok := s.postMortem(node, reported); ok && dead != node {
		node, lastPhase, events = dead, "", nil
	}
	ringPhase, beatAge, ring := s.health.failureInfo(node, seq)
	if lastPhase == "" {
		lastPhase = ringPhase
	}
	if len(events) == 0 {
		events = ring
	}
	return &QueryError{
		Seq: seq, Node: node, LastPhase: lastPhase,
		BeatAge: beatAge, Events: events, Cause: cause,
	}
}

// Open runs the registration phase — accept one control connection per
// node, hand out the public parameters, collect registrations — and the
// trusted-party setup of §3.4 over them, hands every node the deployment
// it builds its engine from (setupMsg), and returns the standing session.
// Registration is bounded by ctx's deadline and a two-minute limit,
// whichever is earlier; cancellation aborts the accept loop.
func (c *Coordinator) Open(ctx context.Context) (*Session, error) {
	g := c.sc.Graph
	n := g.N()
	params := trustedparty.Params{Group: c.sc.Group, K: c.sc.K, D: g.D, L: c.prog.MsgBits, Recoverable: c.sc.Recover}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	// --- Registration: accept one connection per node, hand out the public
	// parameters, and collect registrations (concurrently: nodes connect in
	// any order).
	type regResult struct {
		id network.NodeID
		nc *nodeConn
		e  error
	}
	regCh := make(chan regResult, n)
	// Every accepted connection is closed if Open fails, whether or not
	// its registration completed: a node blocked in its control-plane
	// handshake must be released when the coordinator aborts.
	var accepted []net.Conn
	ok := false
	defer func() {
		if !ok {
			// A failed Open must release everything it held: the blocked
			// nodes and the listener (nothing else will ever close it).
			for _, c := range accepted {
				c.Close()
			}
			c.ln.Close()
		}
	}()
	regDeadline := time.Now().Add(registerTimeout)
	if d, has := ctx.Deadline(); has && d.Before(regDeadline) {
		regDeadline = d
	}
	if tl, isTCP := c.ln.(*net.TCPListener); isTCP {
		tl.SetDeadline(regDeadline)
	}
	// Cancellation closes the listener so a blocked Accept returns.
	stopAccept := context.AfterFunc(ctx, func() { c.ln.Close() })
	defer stopAccept()
	for i := 0; i < n; i++ {
		conn, err := c.ln.Accept()
		if err != nil {
			if ctxErr := ctx.Err(); errors.Is(ctxErr, context.Canceled) {
				return nil, fmt.Errorf("cluster: registration canceled after %d of %d nodes: %w", i, n, ctxErr)
			}
			return nil, fmt.Errorf("cluster: control accept (%d of %d nodes registered before the registration deadline): %w",
				i, n, err)
		}
		accepted = append(accepted, conn)
		conn.SetDeadline(regDeadline)
		go func(conn net.Conn) {
			nc := &nodeConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
			var hello helloMsg
			if err := nc.dec.Decode(&hello); err != nil {
				regCh <- regResult{e: fmt.Errorf("cluster: reading hello: %w", err)}
				return
			}
			nc.addr = hello.DataAddr
			if err := nc.enc.Encode(paramsMsg{Group: c.sc.Group.Name(), K: c.sc.K, D: g.D, L: c.prog.MsgBits}); err != nil {
				regCh <- regResult{id: hello.ID, e: fmt.Errorf("cluster: sending params: %w", err)}
				return
			}
			var rm regMsg
			if err := nc.dec.Decode(&rm); err != nil {
				regCh <- regResult{id: hello.ID, e: fmt.Errorf("cluster: reading registration: %w", err)}
				return
			}
			reg, err := trustedparty.UnmarshalRegistration(c.sc.Group, rm.Reg)
			if err != nil {
				regCh <- regResult{id: hello.ID, e: err}
				return
			}
			if reg.ID != hello.ID {
				regCh <- regResult{id: hello.ID, e: fmt.Errorf("cluster: registration id %d != hello id %d", reg.ID, hello.ID)}
				return
			}
			nc.reg = reg
			regCh <- regResult{id: hello.ID, nc: nc}
		}(conn)
	}
	conns := make(map[network.NodeID]*nodeConn, n)
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case r := <-regCh:
			if r.e != nil {
				return nil, r.e
			}
			if r.id < 1 || int(r.id) > n {
				return nil, fmt.Errorf("cluster: node id %d outside [1,%d]", r.id, n)
			}
			if _, dup := conns[r.id]; dup {
				return nil, fmt.Errorf("cluster: duplicate node id %d", r.id)
			}
			conns[r.id] = r.nc
		}
	}
	c.ln.Close()

	// --- Trusted-party setup over the collected registrations.
	tp, err := trustedparty.New(params)
	if err != nil {
		return nil, err
	}
	ids := make([]network.NodeID, 0, n)
	for id := range conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	regs := make([]trustedparty.NodeRegistration, 0, n)
	for _, id := range ids {
		regs = append(regs, conns[id].reg)
	}
	setup, err := tp.Setup(regs)
	if err != nil {
		return nil, err
	}

	// --- Hand every node the deployment, still under the registration
	// deadline. Open does not wait for the nodes to build their engines:
	// each node builds before it reads anything else off its ordered
	// control connection, so it has its engine before its first job.
	msg := setupMsg{
		Alpha: c.sc.Alpha, AggFanIn: c.sc.AggFanIn, Recover: c.sc.Recover,
		Out: g.Out, Directory: make(map[network.NodeID]string, n),
	}
	if c.sc.Spec != nil {
		msg.Prog = *c.sc.Spec
	}
	for id, nc := range conns {
		msg.Directory[id] = nc.addr
	}
	if c.hub != nil {
		// In-process nodes install the driver's own publication: nothing
		// to marshal, nothing for them to re-verify.
		c.hub.publish(0, &vertex.Recovery{Setup: setup})
	} else {
		msg.Setup = trustedparty.MarshalSetup(c.sc.Group, setup)
	}
	for _, id := range ids {
		if err := conns[id].enc.Encode(msg); err != nil {
			return nil, fmt.Errorf("cluster: sending setup to node %d: %w", id, err)
		}
	}
	// Queries may take arbitrarily long, so lift the handshake deadline
	// from the control connections.
	for _, nc := range conns {
		nc.conn.SetDeadline(time.Time{})
	}
	ok = true
	budget := c.sc.Budget
	if budget <= 0 {
		budget = math.Inf(1) // unmetered
	}
	sess := &Session{
		c: c, conns: conns, ids: ids, setup: setup,
		maxConcurrent: 1,
		pending:       make(map[int]chan doneMsg),
		health:        newFleetHealth(ids),
		hbStop:        make(chan struct{}),
		hbDone:        make(chan struct{}),
		readDone:      make(chan struct{}),
		tp:            tp,
		regs:          regs,
		deathCh:       make(chan network.NodeID, n),
		attempts:      make(map[int]int),
		specs:         make(map[int]Query),
		acct:          dp.NewAccountant(budget),
	}
	sess.idle.L = &sess.mu
	for _, id := range ids {
		go sess.readLoop(id, conns[id])
	}
	go sess.heartbeatLoop()
	return sess, nil
}

// runQuery dispatches one admitted query to the standing fleet and
// collects the reports. Queries may overlap: each one's protocol traffic
// lives under its own "q/<seq>" tag namespace and its reports are routed
// back by seq. Without Scenario.Recover, a node failure or context
// cancellation fails the query (and Query then aborts the session) —
// fail-stop, matching the paper's prototype. With it, an attributed node
// death re-blocks the fleet around the casualty and resumes the query from
// its last common checkpoint barrier; only unattributable failures (or a
// failed recovery) fail it.
func (s *Session) runQuery(ctx context.Context, tr *obs.Trace, q Query, seq int, ch chan doneMsg) (*Result, error) {
	start := time.Now()
	s.mu.Lock()
	recStart, evStart := s.recoveries, len(s.recEvents)
	s.mu.Unlock()
	if s.c.hub != nil {
		// The engines of an in-process fleet share one certificate cache,
		// in which each key serves all K+1 senders of its edge.
		s.c.hub.dep.ExpectCertUses(q.Iterations * (s.c.sc.K + 1))
	}
	if err := s.dispatch(seq, q); err != nil {
		return nil, err
	}

	// --- Collect this query's reports, routed here by the session readers.
	// With recovery off, the fleet is fixed and one clean report per node
	// completes the query. With it, completion means: every currently-live
	// node has reported for the query's current attempt — a re-blocking
	// mid-collect shrinks the fleet, bumps the attempt, and discards
	// superseded reports.
	var live []network.NodeID
	got := make(map[network.NodeID]doneMsg)
	for {
		s.mu.Lock()
		attempt := s.attempts[seq]
		liveNow := append([]network.NodeID(nil), s.ids...)
		s.mu.Unlock()
		complete := true
		for _, id := range liveNow {
			if d, ok := got[id]; !ok || d.Attempt != attempt {
				complete = false
				break
			}
		}
		if complete {
			live = liveNow
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.readDone:
			return nil, s.queryError(seq, s.failNode, false, "", nil, s.readErr.Error())
		case dead := <-s.deathCh:
			if err := s.recoverDead(dead, seq, 0); err != nil {
				return nil, s.queryError(seq, dead, false, "", nil, err.Error())
			}
		case d := <-ch:
			if d.Attempt != attempt {
				slog.Debug("cluster: discarding superseded report",
					"query", seq, "node", d.ID, "attempt", d.Attempt, "current", attempt)
				continue
			}
			if d.Err != "" {
				cause := d.Err
				if s.c.sc.Recover {
					// The run failed but the node survives: some peer died
					// mid-protocol. Attribute and re-block; the query
					// resumes on the shrunken fleet.
					err := s.recoverDead(0, seq, attempt)
					if err == nil {
						continue
					}
					cause += " (recovery: " + err.Error() + ")"
				}
				return nil, s.queryError(seq, d.ID, true, d.LastPhase, d.Flight, cause)
			}
			got[d.ID] = d
			slog.Debug("cluster node reported", "query", seq, "node", d.ID,
				"bytes_sent", d.Row.Stats.BytesSent, "spans", len(d.Spans))
		}
	}
	rep := &Report{Transport: "tcp", Nodes: s.c.sc.Graph.N()}
	if s.c.hub != nil {
		rep.Transport = "sim"
	}
	for _, id := range live {
		rep.NodePhases = append(rep.NodePhases, got[id].Row)
		s.mergeTrace(tr, got[id])
	}
	slices.SortFunc(rep.NodePhases, func(a, b vertex.NodeResult) int { return int(a.Node - b.Node) })
	rep.WallTime = time.Since(start)
	s.mu.Lock()
	recoveries := s.recoveries - recStart
	if evEnd := len(s.recEvents); evEnd > evStart {
		rep.RecoveryEvents = append([]obs.FlightEvent(nil), s.recEvents[evStart:evEnd]...)
	}
	aggMembers := len(s.setup.Assignment.AggBlock)
	s.mu.Unlock()

	raw, folded, err := vertex.Fold(rep.NodePhases, aggMembers)
	if err != nil {
		return nil, err
	}
	rep.Report = *folded
	rep.Recoveries = recoveries
	slog.Debug("cluster query complete", "query", seq, "wall_ms", rep.WallTime.Milliseconds(),
		"total_bytes", rep.TotalBytes(), "recoveries", recoveries)
	res := &Result{Raw: raw, Value: float64(raw), Epsilon: q.Epsilon, Report: rep}
	if s.c.sc.Decode != nil {
		res.Value = s.c.sc.Decode(raw)
	}
	return res, nil
}

// dispatch triggers query seq: its attempt-1 job goes to every live node.
// The whole fleet loop holds dispatchMu so overlapping queries cannot
// interleave their jobs across connections: every node sees the same job
// order. With recovery on, a death is re-blocked around instead of failing
// the query — one noticed while the fleet idled before the query goes out,
// one met by a failed send mid-dispatch — and the re-blocking resumes this
// query (already pending) on the survivors.
func (s *Session) dispatch(seq int, q Query) error {
	select {
	case dead := <-s.deathCh:
		if err := s.recoverDead(dead, seq, 0); err != nil {
			return s.queryError(seq, dead, false, "", nil, err.Error())
		}
	default:
	}
	s.dispatchMu.Lock()
	slog.Debug("cluster query dispatch", "query", seq, "iterations", q.Iterations, "epsilon", q.Epsilon)
	// Snapshot the fleet while holding dispatchMu: a recovery both shrinks
	// ids and sends its own control traffic under the same lock, so the
	// snapshot can never name a retired connection — and a recovery that
	// already resumed this query has started it on the survivors.
	s.mu.Lock()
	resumed := s.attempts[seq] > 1
	live := append([]network.NodeID(nil), s.ids...)
	assignment := s.setup.Assignment
	s.mu.Unlock()
	if resumed {
		s.dispatchMu.Unlock()
		return nil
	}
	for _, id := range live {
		job := s.job(id, seq, 1, q, assignment)
		if err := s.conns[id].send(ctrlMsg{Job: &job}); err != nil {
			s.dispatchMu.Unlock()
			if s.c.sc.Recover && s.recoverDead(id, seq, 0) == nil {
				return nil
			}
			return s.queryError(seq, id, false, "", nil, "dispatching job: "+err.Error())
		}
	}
	s.dispatchMu.Unlock()
	return nil
}

// resumePlan is the coordinator's decision for one in-flight query during a
// recovery: its new attempt number and the barrier it resumes from.
type resumePlan struct {
	seq, attempt, barrier int
	q                     Query
}

// job builds node id's job message for one attempt of query seq under
// assignment a.
func (s *Session) job(id network.NodeID, seq, attempt int, q Query, a trustedparty.Assignment) jobMsg {
	return jobMsg{
		Seq: seq, Attempt: attempt, Iterations: q.Iterations, Epsilon: q.Epsilon,
		Inputs: vertex.OwnerInputs(s.c.sc.Graph, a, id),
	}
}

// recoverDead re-blocks the session around one dead node and resumes every
// in-flight query on the shrunken fleet. hint names the casualty when the
// caller watched its control connection die; 0 asks the post-mortem probe
// to attribute one from heartbeat silence. attempt (when non-zero) is the
// query attempt whose failure report prompted the call — if a concurrent
// recovery already superseded that attempt, the call is a stale duplicate
// and succeeds as a no-op.
func (s *Session) recoverDead(hint network.NodeID, seq, attempt int) error {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	hintLive := hint != 0 && slices.Contains(s.ids, hint)
	cur := s.attempts[seq]
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("cluster: session closed during recovery")
	}
	if hint != 0 && !hintLive {
		return nil // an earlier recovery already handled this death
	}
	if hint == 0 && attempt != 0 && attempt != cur {
		return nil // the failure belonged to a superseded attempt
	}
	// Pause the stall watchdog: every in-flight query is frozen at its
	// resume barrier until the recovered fleet re-enters the schedule, and
	// that silence is not a stall.
	s.health.beginRecovery()
	defer s.health.endRecovery(time.Now())
	dead, ok := s.postMortem(hint, false)
	if !ok {
		if hint == 0 {
			return fmt.Errorf("cluster: query %d failed but every node answers pings: unrecoverable protocol error", seq)
		}
		dead = hint
	}
	s.mu.Lock()
	candidates := append([]network.NodeID(nil), s.ids...)
	setup := s.setup
	s.mu.Unlock()
	if !slices.Contains(candidates, dead) {
		return nil // already re-blocked around this casualty
	}

	rec, err := vertex.PlanRecovery(s.tp, setup, s.regs, s.c.sc.Graph, candidates, dead)
	if err != nil {
		return fmt.Errorf("cluster: re-blocking around node %d: %w", dead, err)
	}
	repl, next := rec.Repl, rec.Setup
	wireNext := trustedparty.MarshalSetup(s.c.sc.Group, next)
	adoptedKeys := make(map[int][][]byte, len(rec.AdoptedKeys))
	for v, nks := range rec.AdoptedKeys {
		keys := make([][]byte, len(nks))
		for j, nk := range nks {
			keys[j] = nk.Bytes()
		}
		adoptedKeys[v] = keys
	}

	// Commit: bump every in-flight query's attempt, retire the casualty,
	// swap the setup, and announce under dispatchMu so the recovery message
	// orders before any later job on every control connection.
	now := time.Now().UnixNano()
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	s.mu.Lock()
	epoch := s.recoveries + 1
	var plans []resumePlan
	deadBlobs := make(map[int][]byte)
	for q := range s.pending {
		b := s.ckpts.ResumeBarrier(q, s.ids)
		na := s.attempts[q] + 1
		s.attempts[q] = na
		plans = append(plans, resumePlan{seq: q, attempt: na, barrier: b, q: s.specs[q]})
		if b >= 0 {
			deadBlobs[q] = s.ckpts.Blob(q, dead, b)
		}
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].seq < plans[j].seq })
	s.setup = next
	deadConn := s.conns[dead]
	delete(s.conns, dead)
	liveNow := make([]network.NodeID, 0, len(s.ids)-1)
	for _, id := range s.ids {
		if id != dead {
			liveNow = append(liveNow, id)
		}
	}
	s.ids = liveNow
	s.recoveries++
	evs := []obs.FlightEvent{
		{At: now, Kind: "recover", Name: fmt.Sprintf("death node=%d", dead), Node: int32(dead)},
		{At: now, Kind: "recover", Name: fmt.Sprintf("reblock epoch=%d dead=%d repl=%d", epoch, dead, repl), Node: int32(repl)},
	}
	for _, p := range plans {
		evs = append(evs, obs.FlightEvent{
			At: now, Kind: "recover",
			Name:  fmt.Sprintf("resume attempt=%d barrier=%d", p.attempt, p.barrier),
			Query: network.Tag("q", p.seq), Node: int32(repl),
		})
	}
	s.recEvents = append(s.recEvents, evs...)
	s.mu.Unlock()
	if deadConn != nil {
		deadConn.conn.Close()
	}
	s.health.markDead(dead)
	if s.c.hub != nil {
		// In-process nodes apply the driver's own re-blocking, so their
		// engines keep sharing one publication (and its certificate cache).
		rec.DeadBlobs = deadBlobs
		s.c.hub.publish(epoch, rec)
	}

	var firstErr error
	for _, id := range liveNow {
		rm := recoverMsg{Epoch: epoch, Dead: dead, Repl: repl, Setup: wireNext}
		if id == repl {
			rm.AdoptedKeys = adoptedKeys
			rm.DeadBlobs = deadBlobs
		}
		for _, p := range plans {
			rm.Resumes = append(rm.Resumes, resumeSpec{
				Barrier: p.barrier, Job: s.job(id, p.seq, p.attempt, p.q, next.Assignment),
			})
		}
		s.mu.Lock()
		nc := s.conns[id]
		s.mu.Unlock()
		if nc == nil {
			continue
		}
		if err := nc.send(ctrlMsg{Recover: &rm}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: sending recovery to node %d: %w", id, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	slog.Info("cluster recovered around dead node",
		"epoch", epoch, "dead", dead, "repl", repl, "resumed", len(plans))
	return nil
}

// abort closes every control connection without the shutdown handshake;
// nodes observe the loss, cancel any in-flight query, and exit with an
// error.
func (s *Session) abort() {
	s.stopHeartbeat()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, nc := range s.conns {
		nc.conn.Close()
	}
}

// Close shuts the standing fleet down cleanly, waiting first for every
// in-flight query to finish so the protocol is never torn down under a
// live run (cancel the queries' contexts to hurry them along): every node
// receives a shutdown message and exits with its last result. Idempotent,
// and safe after a failed query (the session is already aborted then).
// Nodes started in this process are waited for, and the first of their
// errors is reported.
func (s *Session) Close() error {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	wasClosed := s.closed
	s.closed = true
	// Copy: a recovery may have shrunk the map, and the map itself must not
	// be iterated outside mu.
	conns := make([]*nodeConn, 0, len(s.conns))
	for _, nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	s.stopHeartbeat()
	var err error
	if !wasClosed {
		err = s.shutdown(conns)
	}
	if s.nodes != nil {
		if nerr := s.nodes.wait(); err == nil {
			err = nerr
		}
	}
	return err
}

func (s *Session) shutdown(conns []*nodeConn) error {
	// The pinger must be fully stopped before the shutdown handshake: a
	// ping interleaved after a node processed its shutdown job would race
	// the connection teardown.
	<-s.hbDone
	var firstErr error
	s.dispatchMu.Lock()
	for _, nc := range conns {
		if err := nc.send(ctrlMsg{Job: &jobMsg{Shutdown: true}}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: shutting down: %w", err)
		}
	}
	s.dispatchMu.Unlock()
	for _, nc := range conns {
		nc.conn.Close()
	}
	return firstErr
}
