package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dstress/internal/dp"
)

// NewHandler exposes a Service over JSON-HTTP:
//
//	POST /v1/queries                  submit; {"wait":false} for async
//	GET  /v1/queries/{id}             status / result
//	GET  /v1/tenants/{tenant}/budget  ε position
//	POST /v1/tenants/{tenant}/replenish  §4.5 annual reset
//	GET  /v1/fleet                    live fleet health (heartbeats, clocks)
//	GET  /healthz                     200 serving, 503 draining
//	GET  /metrics                     Prometheus text format
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(s, w, r)
	})
	mux.HandleFunc("GET /v1/queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, wireQuery(st))
	})
	mux.HandleFunc("GET /v1/tenants/{tenant}/budget", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Ledger().Status(r.PathValue("tenant"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, wireBudget(st))
	})
	mux.HandleFunc("POST /v1/tenants/{tenant}/replenish", func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("tenant")
		if err := s.Ledger().Replenish(tenant); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		st, err := s.Ledger().Status(tenant)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, wireBudget(st))
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, wireFleets(s.Fleets()))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, s.Metrics())
	})
	return mux
}

// submitRequest is the POST /v1/queries body.
type submitRequest struct {
	Tenant     string   `json:"tenant"`
	Iterations int      `json:"iterations"`
	Epsilon    *float64 `json:"epsilon"`
	// Wait selects synchronous (default true: respond with the result)
	// vs asynchronous (202 + id, poll GET /v1/queries/{id}).
	Wait *bool `json:"wait"`
}

func handleSubmit(s *Service, w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	q, err := s.submit(Request{Tenant: req.Tenant, Iterations: req.Iterations, Epsilon: req.Epsilon})
	if err != nil {
		writeError(w, submitErrorCode(err), err)
		return
	}
	if req.Wait != nil && !*req.Wait {
		writeJSON(w, http.StatusAccepted, wireQuery(s.statusOf(q)))
		return
	}
	final, err := s.waitOn(r.Context(), q)
	if err != nil {
		// The query keeps running server-side; hand the client its id so
		// it can poll.
		writeJSON(w, http.StatusAccepted, wireQuery(s.statusOf(q)))
		return
	}
	writeJSON(w, http.StatusOK, wireQuery(final))
}

// submitErrorCode maps admission failures to HTTP statuses.
func submitErrorCode(err error) int {
	switch {
	case errors.Is(err, dp.ErrBudgetExhausted):
		return http.StatusTooManyRequests // budget, not rate — but the semantics match: stop asking
	case errors.Is(err, dp.ErrUnknownTenant):
		return http.StatusForbidden
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// ---------------------------------------------------------------------------
// Wire shapes
// ---------------------------------------------------------------------------

type queryWire struct {
	ID         string     `json:"id"`
	Tenant     string     `json:"tenant"`
	Status     State      `json:"status"`
	Iterations int        `json:"iterations"`
	Epsilon    float64    `json:"epsilon"`
	Submitted  time.Time  `json:"submitted"`
	Raw        *int64     `json:"raw,omitempty"`
	Value      *float64   `json:"value,omitempty"`
	Report     reportWire `json:"report,omitempty"`
	Error      string     `json:"error,omitempty"`
	LatencyMS  float64    `json:"latency_ms,omitempty"`
	// Phase is the live protocol phase; present only while running.
	Phase string `json:"phase,omitempty"`
}

// reportWire is the "report" object: transport, nodes, wall_ms, bytes, and
// "<key>_ms" for every row of the report's phase table.
type reportWire map[string]any

func wireQuery(st QueryStatus) queryWire {
	out := queryWire{
		ID: st.ID, Tenant: st.Tenant, Status: st.State,
		Iterations: st.Spec.Iterations, Epsilon: st.Spec.Epsilon,
		Submitted: st.Submitted, Error: st.Err, Phase: st.Phase,
	}
	if st.Result != nil {
		raw, value := st.Result.Raw, st.Result.Value
		out.Raw, out.Value = &raw, &value
		if rep := st.Result.Report; rep != nil {
			out.Report = reportWire{
				"transport": rep.Transport, "nodes": rep.Nodes,
				"wall_ms": ms(rep.WallTime), "bytes": rep.TotalBytes(),
			}
			for _, ph := range rep.Phases() {
				out.Report[ph.Key+"_ms"] = ms(ph.Time)
			}
		}
	}
	if !st.Finished.IsZero() {
		out.LatencyMS = ms(st.Finished.Sub(st.Submitted))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fleetsWire is the GET /v1/fleet body: one entry per pool member with a
// health plane (sim members have none, so the list can be shorter than the
// pool — or empty, which still renders as [] not null).
type fleetsWire struct {
	Fleets []fleetWire `json:"fleets"`
}

type fleetWire struct {
	Member   int   `json:"member"`
	InFlight []int `json:"in_flight"`
	Stalled  []int `json:"stalled"`
	// Dead lists nodes retired by re-blocking recoveries (death order);
	// Recoveries counts the re-blockings this deployment has performed.
	Dead       []int           `json:"dead"`
	Recoveries int             `json:"recoveries"`
	Nodes      []fleetNodeWire `json:"nodes"`
}

type fleetNodeWire struct {
	Node          int     `json:"node"`
	Beats         uint64  `json:"beats"`
	BeatAgeMS     float64 `json:"beat_age_ms"`
	ClockOffsetMS float64 `json:"clock_offset_ms"`
	RTTMS         float64 `json:"rtt_ms"`
	Synced        bool    `json:"synced"`
	Goroutines    int     `json:"goroutines"`
	HeapBytes     uint64  `json:"heap_bytes"`
	GCPauseMS     float64 `json:"gc_pause_ms"`
	Handshakes    int64   `json:"handshakes"`
	// Phases maps in-flight query seq (as a string, for JSON) → the
	// node's last entered phase.
	Phases map[string]string `json:"phases,omitempty"`
	// OpenSpans is the node's live span snapshot from its last beat.
	OpenSpans []openSpanWire `json:"open_spans,omitempty"`
}

type openSpanWire struct {
	Name  string  `json:"name"`
	Query string  `json:"query,omitempty"`
	DurMS float64 `json:"dur_ms"`
}

func wireFleets(fleets []FleetStatus) fleetsWire {
	out := fleetsWire{Fleets: []fleetWire{}}
	for _, f := range fleets {
		fw := fleetWire{
			Member:     f.Member,
			InFlight:   emptyInts(f.Fleet.InFlight),
			Stalled:    emptyInts(f.Fleet.Stalled),
			Dead:       []int{},
			Recoveries: f.Fleet.Recoveries,
			Nodes:      []fleetNodeWire{},
		}
		for _, d := range f.Fleet.Dead {
			fw.Dead = append(fw.Dead, int(d))
		}
		for _, n := range f.Fleet.Nodes {
			nw := fleetNodeWire{
				Node: n.Node, Beats: n.Beats,
				BeatAgeMS:     ms(n.BeatAge),
				ClockOffsetMS: ms(n.ClockOffset),
				RTTMS:         ms(n.RTT),
				Synced:        n.Synced,
				Goroutines:    n.Goroutines,
				HeapBytes:     n.HeapBytes,
				GCPauseMS:     float64(n.GCPauseNS) / 1e6,
				Handshakes:    n.Handshakes,
			}
			if len(n.Phases) > 0 {
				nw.Phases = make(map[string]string, len(n.Phases))
				for seq, ph := range n.Phases {
					nw.Phases[strconv.Itoa(seq)] = ph
				}
			}
			for _, sp := range n.Open {
				nw.OpenSpans = append(nw.OpenSpans, openSpanWire{
					Name: sp.Name, Query: sp.Query,
					DurMS: float64(sp.Dur) / 1e6,
				})
			}
			fw.Nodes = append(fw.Nodes, nw)
		}
		out.Fleets = append(out.Fleets, fw)
	}
	return out
}

// emptyInts keeps empty slices rendering as [] instead of null.
func emptyInts(v []int) []int {
	if v == nil {
		return []int{}
	}
	return v
}

type budgetWire struct {
	Tenant string `json:"tenant"`
	// Unmetered marks a +Inf budget; Budget and Remaining are then
	// omitted (JSON has no Inf).
	Unmetered bool     `json:"unmetered,omitempty"`
	Budget    *float64 `json:"budget,omitempty"`
	Spent     float64  `json:"spent"`
	Remaining *float64 `json:"remaining,omitempty"`
}

func wireBudget(st dp.BudgetStatus) budgetWire {
	out := budgetWire{Tenant: st.Tenant, Spent: st.Spent}
	if math.IsInf(st.Budget, 1) {
		out.Unmetered = true
		return out
	}
	budget, remaining := st.Budget, st.Remaining
	out.Budget, out.Remaining = &budget, &remaining
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before writing the header, so an encoding failure becomes
	// an honest 500 instead of a 200 with an empty body.
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeMetrics renders the counters in Prometheus text exposition format.
func writeMetrics(w http.ResponseWriter, m Metrics) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(name, typ, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	p("dstress_queries_submitted_total", "counter", "Admission attempts.", m.Submitted)
	p("dstress_queries_refused_total", "counter", "Submissions refused (budget, queue, draining, validation).", m.Refused)
	p("dstress_queries_served_total", "counter", "Queries completed successfully.", m.Served)
	p("dstress_queries_failed_total", "counter", "Admitted queries that failed during execution.", m.Failed)
	p("dstress_query_resubmits_total", "counter", "Queries automatically re-run after a fleet-level failure (not re-charged).", m.Resubmits)
	p("dstress_recoveries_total", "counter", "Node deaths survived in place by re-blocking recoveries, summed across pool deployments.", m.FleetRecoveries)
	p("dstress_queue_depth", "gauge", "Admitted queries waiting for a pool session.", m.QueueDepth)
	p("dstress_pool_sessions", "gauge", "Standing deployments in the pool.", m.PoolSessions)
	p("dstress_pool_busy", "gauge", "Pool sessions answering a query right now.", m.PoolBusy)
	p("dstress_epsilon_charged_total", "counter", "Lifetime privacy budget admitted across all tenants.", m.EpsilonCharged)
	p("dstress_query_latency_seconds_sum", "counter", "Summed submit-to-finish latency of served queries.", m.LatencySum.Seconds())
	p("dstress_query_latency_seconds_count", "counter", "Served queries contributing to the latency sum.", m.LatencyCount)

	// Per-phase latency histograms (one series set per protocol phase plus
	// "wall"), in standard Prometheus histogram shape.
	if len(m.PhaseLatency) > 0 {
		name := "dstress_phase_latency_seconds"
		fmt.Fprintf(w, "# HELP %s Per-phase latency of served queries.\n# TYPE %s histogram\n", name, name)
		phases := make([]string, 0, len(m.PhaseLatency))
		for ph := range m.PhaseLatency {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			h := m.PhaseLatency[ph]
			for i, bound := range h.Bounds {
				fmt.Fprintf(w, "%s_bucket{phase=%q,le=%q} %d\n",
					name, ph, strconv.FormatFloat(bound, 'g', -1, 64), h.Cumulative[i])
			}
			fmt.Fprintf(w, "%s_bucket{phase=%q,le=\"+Inf\"} %d\n", name, ph, h.Count)
			fmt.Fprintf(w, "%s_sum{phase=%q} %v\n", name, ph, h.Sum)
			fmt.Fprintf(w, "%s_count{phase=%q} %d\n", name, ph, h.Count)
		}
	}

	// Per-tenant ε accounting. Spent survives replenishment (lifetime
	// charge), so it is a counter; remaining budget is a gauge.
	if len(m.Tenants) > 0 {
		fmt.Fprintf(w, "# HELP dstress_tenant_epsilon_spent Privacy budget charged per tenant (lifetime).\n# TYPE dstress_tenant_epsilon_spent counter\n")
		for _, t := range m.Tenants {
			fmt.Fprintf(w, "dstress_tenant_epsilon_spent{tenant=%q} %v\n", t.Tenant, t.Spent)
		}
		fmt.Fprintf(w, "# HELP dstress_tenant_epsilon_remaining Unspent privacy budget per tenant (omitted when unmetered).\n# TYPE dstress_tenant_epsilon_remaining gauge\n")
		for _, t := range m.Tenants {
			if math.IsInf(t.Budget, 1) {
				continue
			}
			fmt.Fprintf(w, "dstress_tenant_epsilon_remaining{tenant=%q} %v\n", t.Tenant, t.Remaining)
		}
	}

	// Process gauges sampled at snapshot time (goroutines, heap, GC). A
	// name ending in _total is a cumulative quantity and exposed as a
	// counter.
	for _, g := range m.Gauges {
		typ := "gauge"
		if strings.HasSuffix(g.Name, "_total") {
			typ = "counter"
		}
		p(g.Name, typ, g.Help, g.Value)
	}

	// Fleet health: stall count plus per-node heartbeat freshness and
	// clock-offset estimates, labeled by pool member and node id.
	p("dstress_stalled_queries", "gauge", "In-flight queries currently flagged by a fleet stall watchdog.", m.StalledQueries)
	if len(m.Fleets) > 0 {
		fmt.Fprintf(w, "# HELP dstress_node_heartbeat_age_seconds Time since each fleet node's last heartbeat reply.\n# TYPE dstress_node_heartbeat_age_seconds gauge\n")
		for _, f := range m.Fleets {
			for _, n := range f.Fleet.Nodes {
				fmt.Fprintf(w, "dstress_node_heartbeat_age_seconds{member=\"%d\",node=\"%d\"} %v\n",
					f.Member, n.Node, n.BeatAge.Seconds())
			}
		}
		fmt.Fprintf(w, "# HELP dstress_node_clock_offset_seconds Estimated node clock minus coordinator clock (min-RTT heartbeat exchange).\n# TYPE dstress_node_clock_offset_seconds gauge\n")
		for _, f := range m.Fleets {
			for _, n := range f.Fleet.Nodes {
				if !n.Synced {
					continue
				}
				fmt.Fprintf(w, "dstress_node_clock_offset_seconds{member=\"%d\",node=\"%d\"} %v\n",
					f.Member, n.Node, n.ClockOffset.Seconds())
			}
		}
	}

	draining := 0
	if m.Draining {
		draining = 1
	}
	p("dstress_draining", "gauge", "1 once shutdown has begun.", draining)
}
