package cluster

// The fleet health plane. The paper's deployment model (§4.5) is a standing
// fleet that sits idle almost all year; everything in this file exists so
// that fleet is observable while idle and while a query is in flight, not
// only after a query completes:
//
//   - each heartbeat ping/beat exchange feeds an NTP-style clock estimator
//     per node, so merged span tables can be rebased onto one timeline;
//   - beats carry live per-query progress, which drives both the serve
//     layer's "phase" field on running queries and the stall watchdog;
//   - beats stream flight-recorder increments into a coordinator-side ring
//     per node, so when a node dies mid-query — even killed hard, unable
//     to send anything — the failure can still name its last phase and
//     show the final seconds of its protocol activity.

import (
	"encoding/json"
	"log/slog"
	"sort"
	"sync"
	"time"

	"dstress/internal/network"
	"dstress/internal/obs"
)

// Default health-plane parameters, applied by Open when the Scenario leaves
// them zero.
const (
	defaultHeartbeat   = time.Second
	defaultStallWindow = 30 * time.Second
)

// progressMark is the coordinator's view of one query's position on one
// node, updated from heartbeats.
type progressMark struct {
	phase   string
	steps   int64
	changed time.Time // when steps last advanced
}

// nodeHealth is the live model of one node, guarded by fleetHealth.mu.
type nodeHealth struct {
	beats      uint64
	lastBeat   time.Time
	est        obs.ClockEstimator
	goroutines int
	heapBytes  uint64
	gcPauseNS  uint64
	handshakes int64
	open       []obs.Span
	prog       map[int]*progressMark
	flight     *obs.Flight
}

// fleetHealth is the coordinator's model of the standing fleet, fed by
// heartbeats and consulted by the watchdog, the failure path, and snapshot
// callers (Session.Fleet, the serve layer's /v1/fleet).
type fleetHealth struct {
	mu       sync.Mutex
	opened   time.Time
	nodes    map[network.NodeID]*nodeHealth
	ids      []network.NodeID
	watchers map[int]obs.ProgressFunc // per-seq live-phase callbacks
	starts   map[int]time.Time        // per-seq dispatch times
	stalled  map[int]bool             // seqs currently flagged
	// Recovery plane: dead lists retired casualties, recoveries counts
	// completed re-blockings, and recovering (when > 0) pauses the stall
	// watchdog — a query frozen at its resume barrier is not stalled.
	dead       []network.NodeID
	recoveries int
	recovering int
}

func newFleetHealth(ids []network.NodeID) *fleetHealth {
	h := &fleetHealth{
		opened:   time.Now(),
		nodes:    make(map[network.NodeID]*nodeHealth, len(ids)),
		ids:      append([]network.NodeID(nil), ids...),
		watchers: make(map[int]obs.ProgressFunc),
		starts:   make(map[int]time.Time),
		stalled:  make(map[int]bool),
	}
	for _, id := range ids {
		h.nodes[id] = &nodeHealth{
			prog:   make(map[int]*progressMark),
			flight: obs.NewFlight(0),
		}
	}
	return h
}

// observeBeat folds one heartbeat reply into the model. t4 is the
// coordinator's receive time, completing the NTP exchange.
func (h *fleetHealth) observeBeat(id network.NodeID, b *beatMsg, t4 time.Time) {
	h.mu.Lock()
	nh := h.nodes[id]
	if nh == nil {
		h.mu.Unlock()
		return
	}
	nh.beats++
	nh.lastBeat = t4
	nh.est.Sample(b.T1, b.T2, b.T3, t4.UnixNano())
	nh.goroutines = b.Goroutines
	nh.heapBytes = b.HeapBytes
	nh.gcPauseNS = b.GCPauseNS
	nh.handshakes = b.Handshakes
	nh.open = b.Open
	nh.flight.Append(b.Flight)
	fire := map[int]obs.ProgressFunc{}
	for _, p := range b.Progress {
		pm := nh.prog[p.Seq]
		if pm == nil {
			pm = &progressMark{changed: t4}
			nh.prog[p.Seq] = pm
		}
		if p.Steps > pm.steps {
			pm.steps = p.Steps
			pm.phase = p.Phase
			pm.changed = t4
			if fn := h.watchers[p.Seq]; fn != nil {
				fire[p.Seq] = fn
			}
		}
	}
	// A query is "in" the phase its slowest node is in; recompute for the
	// queries that advanced and fire their watchers outside the lock.
	phases := map[int]string{}
	for seq := range fire {
		phases[seq] = h.slowestLocked(seq).phase
	}
	h.mu.Unlock()
	for seq, fn := range fire {
		if phases[seq] != "" {
			fn(phases[seq])
		}
	}
}

// slowestLocked returns the progress mark of the least-advanced node for a
// query. Nodes that have not reported the query yet count as unstarted.
func (h *fleetHealth) slowestLocked(seq int) progressMark {
	start := h.starts[seq]
	min := progressMark{changed: start}
	found := false
	for _, id := range h.ids {
		pm := h.nodes[id].prog[seq]
		if pm == nil {
			return progressMark{changed: start}
		}
		if !found || pm.steps < min.steps {
			min, found = *pm, true
		}
	}
	return min
}

// watch registers a query as in flight, optionally with a live-phase
// callback (the driver context's obs.ProgressFunc); unwatch retires it.
func (h *fleetHealth) watch(seq int, fn obs.ProgressFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	h.starts[seq] = now
	if fn != nil {
		h.watchers[seq] = fn
	}
	// The dispatch is the first thing the coordinator knows about the
	// query on every node: seed each node's progress mark and mirror ring
	// with it, so a node that dies before a beat ever carries its own
	// progress (killed while still decoding the job) still gets a phase
	// and a trail in the post-mortem. Node-reported marks start at step 1
	// and overwrite this step-0 seed on the first beat.
	qtag := network.Tag("q", seq)
	for _, id := range h.ids {
		nh := h.nodes[id]
		if nh.prog[seq] == nil {
			nh.prog[seq] = &progressMark{phase: "dispatched", changed: now}
		}
		nh.flight.Record(obs.FlightEvent{
			At: now.UnixNano(), Kind: "phase", Name: "dispatched",
			Query: qtag, Node: int32(id),
		})
	}
}

func (h *fleetHealth) unwatch(seq int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.watchers, seq)
	delete(h.starts, seq)
	delete(h.stalled, seq)
	for _, nh := range h.nodes {
		delete(nh.prog, seq)
	}
}

// markDead retires a node from the model after a re-blocking: it leaves the
// live id set (so post-mortems and snapshots stop consulting it) and joins
// the Dead list.
func (h *fleetHealth) markDead(id network.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	keep := h.ids[:0]
	for _, x := range h.ids {
		if x != id {
			keep = append(keep, x)
		}
	}
	h.ids = keep
	delete(h.nodes, id)
	h.dead = append(h.dead, id)
}

// beginRecovery pauses the stall watchdog while a re-blocking is in
// progress; endRecovery resumes it and re-seeds every live node's progress
// marks so the time a query spent frozen at its resume barrier does not
// count toward the stall window. The counter nests: overlapping recoveries
// (several collect loops observing one death) only resume the watchdog when
// the last one finishes.
func (h *fleetHealth) beginRecovery() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recovering++
}

func (h *fleetHealth) endRecovery(now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recovering--
	if h.recovering > 0 {
		return
	}
	h.recoveries++
	for seq := range h.starts {
		delete(h.stalled, seq)
		for _, id := range h.ids {
			// Reset to step 0 at "now": the resumed attempt's step counter
			// restarts from scratch, and observeBeat only advances a mark
			// when steps grow — a stale high-water mark from the superseded
			// attempt would otherwise mask all of the new attempt's
			// progress and fire the watchdog spuriously.
			h.nodes[id].prog[seq] = &progressMark{phase: "recovering", changed: now}
		}
	}
}

// checkStalls is the watchdog tick: an in-flight query older than the
// window whose slowest node has not advanced within the window is flagged
// (slog + the Stalled list in snapshots); a later advance clears the flag.
// Paused while a recovery is re-blocking the fleet.
func (h *fleetHealth) checkStalls(now time.Time, window time.Duration) {
	type stallEvent struct {
		seq     int
		phase   string
		since   time.Duration
		stalled bool
	}
	var events []stallEvent
	h.mu.Lock()
	if h.recovering > 0 {
		h.mu.Unlock()
		return
	}
	for seq, start := range h.starts {
		if now.Sub(start) < window {
			continue
		}
		slow := h.slowestLocked(seq)
		stalled := now.Sub(slow.changed) > window
		if stalled != h.stalled[seq] {
			if stalled {
				h.stalled[seq] = true
			} else {
				delete(h.stalled, seq)
			}
			events = append(events, stallEvent{seq, slow.phase, now.Sub(slow.changed), stalled})
		}
	}
	h.mu.Unlock()
	for _, ev := range events {
		if ev.stalled {
			slog.Warn("cluster query stalled",
				"query", ev.seq, "phase", ev.phase,
				"since", ev.since.Round(time.Millisecond))
		} else {
			slog.Info("cluster query resumed", "query", ev.seq, "phase", ev.phase)
		}
	}
}

// failureInfo pulls the post-mortem evidence for one node out of the model:
// the last phase it reported for the query, its heartbeat age, and the
// coordinator-side flight-recorder tail.
func (h *fleetHealth) failureInfo(id network.NodeID, seq int) (lastPhase string, beatAge time.Duration, events []obs.FlightEvent) {
	h.mu.Lock()
	nh := h.nodes[id]
	if nh == nil {
		h.mu.Unlock()
		return "", 0, nil
	}
	if pm := nh.prog[seq]; pm != nil {
		lastPhase = pm.phase
	}
	last := nh.lastBeat
	if last.IsZero() {
		last = h.opened
	}
	flight := nh.flight
	h.mu.Unlock()
	return lastPhase, time.Since(last), flight.Events()
}

// silentSince returns the nodes whose last beat predates the probe instant,
// sorted by id — the post-mortem's "who stopped answering" check.
func (h *fleetHealth) silentSince(probe time.Time) []network.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	var dead []network.NodeID
	for _, id := range h.ids {
		if h.nodes[id].lastBeat.Before(probe) {
			dead = append(dead, id)
		}
	}
	return dead
}

// snapshot renders the model into the public FleetHealth view.
func (h *fleetHealth) snapshot(now time.Time) *FleetHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := &FleetHealth{
		Nodes:      make([]NodeHealth, 0, len(h.ids)),
		Dead:       append([]network.NodeID(nil), h.dead...),
		Recoveries: h.recoveries,
	}
	for seq := range h.starts {
		out.InFlight = append(out.InFlight, seq)
	}
	sort.Ints(out.InFlight)
	for seq := range h.stalled {
		out.Stalled = append(out.Stalled, seq)
	}
	sort.Ints(out.Stalled)
	for _, id := range h.ids {
		nh := h.nodes[id]
		n := NodeHealth{
			Node:       int(id),
			Beats:      nh.beats,
			Goroutines: nh.goroutines,
			HeapBytes:  nh.heapBytes,
			GCPauseNS:  nh.gcPauseNS,
			Handshakes: nh.handshakes,
			Open:       append([]obs.Span(nil), nh.open...),
		}
		last := nh.lastBeat
		if last.IsZero() {
			last = h.opened
		}
		n.BeatAge = now.Sub(last)
		if s, ok := nh.est.Best(); ok {
			n.ClockOffset, n.RTT, n.Synced = s.Offset, s.RTT, true
		}
		if len(nh.prog) > 0 {
			n.Phases = make(map[int]string, len(nh.prog))
			for seq, pm := range nh.prog {
				n.Phases[seq] = pm.phase
			}
		}
		out.Nodes = append(out.Nodes, n)
	}
	return out
}

// clockOffset is the current estimate of node id's clock minus the
// coordinator's; zero before the first heartbeat exchange completes.
func (h *fleetHealth) clockOffset(id network.NodeID) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if nh := h.nodes[id]; nh != nil {
		if s, ok := nh.est.Best(); ok {
			return s.Offset
		}
	}
	return 0
}

// FleetHealth is a point-in-time view of the standing fleet, assembled from
// heartbeats: one row per node plus the in-flight and watchdog-flagged
// query sets.
type FleetHealth struct {
	Nodes    []NodeHealth
	InFlight []int // query seqs currently running, ascending
	Stalled  []int // query seqs flagged by the stall watchdog, ascending
	// Dead lists nodes retired by re-blockings, in death order, and
	// Recoveries counts the re-blockings; both stay empty/zero unless the
	// scenario enabled Recover and a node died.
	Dead       []network.NodeID
	Recoveries int
}

// NodeHealth is one node's row in a FleetHealth snapshot.
type NodeHealth struct {
	Node int
	// Beats counts heartbeat replies received; BeatAge is the time since
	// the last one (since session open while Beats is 0).
	Beats   uint64
	BeatAge time.Duration
	// ClockOffset is the estimated node-clock minus coordinator-clock
	// difference from the minimum-RTT heartbeat exchange; Synced reports
	// whether any exchange has completed yet.
	ClockOffset time.Duration
	RTT         time.Duration
	Synced      bool
	// Runtime stats from the node's last beat.
	Goroutines int
	HeapBytes  uint64
	GCPauseNS  uint64
	Handshakes int64
	// Open is the node's last-reported live span snapshot.
	Open []obs.Span
	// Phases maps in-flight query seq → the node's last entered phase.
	Phases map[int]string
}

// QueryError is the failure the health plane produces when a cluster query
// dies: it names the node, the last phase that node reported entering, and
// carries the final stretch of its protocol activity from the flight
// recorder. Callers unwrap it with errors.As to drive post-mortem tooling
// (dstress-run -flight-dump, the CI health-smoke job).
type QueryError struct {
	Seq       int
	Node      network.NodeID
	LastPhase string
	// BeatAge is how stale the node's heartbeat was when the failure was
	// attributed — near zero for a node that failed cleanly, roughly the
	// detection latency for one that vanished.
	BeatAge time.Duration
	// Events is the flight-recorder tail: the node's own on failure, or
	// the coordinator-side ring (fed by heartbeats) when the node died
	// without sending one.
	Events []obs.FlightEvent
	// Cause is the underlying error text.
	Cause string
}

func (e *QueryError) Error() string {
	msg := "cluster: query " + itoa(e.Seq) + ": node " + itoa(int(e.Node)) + " failed"
	if e.LastPhase != "" {
		msg += " in phase " + e.LastPhase
	}
	if e.BeatAge > 0 {
		msg += " (last heartbeat " + e.BeatAge.Round(time.Millisecond).String() + " ago)"
	}
	return msg + ": " + e.Cause
}

// itoa avoids pulling fmt into the error path for two small integers.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// flightDump is the JSON shape of a flight-recorder dump.
type flightDump struct {
	Query     int               `json:"query"`
	Node      int               `json:"node"`
	LastPhase string            `json:"last_phase"`
	BeatAgeMS float64           `json:"beat_age_ms"`
	Error     string            `json:"error"`
	Events    []obs.FlightEvent `json:"events"`
}

// Dump renders the failure as an indented JSON document — the
// flight-recorder dump written next to the error by dstress-run and
// dstress-node when -flight-dump is set.
func (e *QueryError) Dump() ([]byte, error) {
	events := e.Events
	if events == nil {
		events = []obs.FlightEvent{}
	}
	return json.MarshalIndent(flightDump{
		Query:     e.Seq,
		Node:      int(e.Node),
		LastPhase: e.LastPhase,
		BeatAgeMS: float64(e.BeatAge) / float64(time.Millisecond),
		Error:     e.Cause,
		Events:    events,
	}, "", "  ")
}
