// Package obs is DStress's zero-dependency tracing and metrics substrate.
//
// The paper's whole evaluation (Figures 3–6) is a phase-time/phase-traffic
// breakdown; this package generalizes that instrumentation from four
// aggregate numbers per run to per-node, per-iteration, per-protocol-layer
// spans and counters, without adding any external dependency or measurable
// overhead when disabled.
//
// A *Trace travels in a context.Context (With/From). Every method on a nil
// *Trace is a safe no-op, so instrumented code reads
//
//	tr := obs.From(ctx)          // nil when tracing is off
//	t0 := time.Now()
//	... work ...
//	tr.Span("iter/3/compute", t0)
//
// and the disabled path costs one context lookup and a nil check — no
// allocation, no lock. Hot loops that would pay for building the span name
// guard on tr != nil first.
//
// Span names form a small taxonomy mirroring the transport's tag namespace
// (see DESIGN.md "Observability"): "phase/<init|compute|transfer|agg>",
// "iter/<n>/<compute|communicate>", "iter/<n>/blk/<v>/gmw",
// "tx/<iter>/<u>/<v>", "agg/<flat|tree|leaf/<g>>". Counters are flat
// name→int64 maps: "gmw/and_rounds", "ot/derand_bits",
// "net/<prefix>/bytes_sent", … Each span carries the query tag ("q/<n>")
// current at record time — the first concrete use of the query-id
// namespace the multiplexing roadmap item needs.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded interval. All fields are exported so spans travel
// over the cluster control plane (gob) from node daemons back to the
// coordinator.
type Span struct {
	// Name is the span's taxonomy path, e.g. "iter/2/compute".
	Name string
	// Node is the node the work ran on (0 = the driving process).
	Node int32
	// Query is the query tag ("q/<n>") current when the span was recorded;
	// empty outside a query.
	Query string
	// Start is nanoseconds since the trace's epoch; Dur is the span length
	// in nanoseconds. Offsets are relative to the recording trace's own
	// epoch; when span tables from different machines are merged, the
	// merger rebases Start onto its own epoch using the per-node clock
	// offsets the health plane estimates (ShiftSpans).
	Start, Dur int64
}

// Trace is an allocation-light span recorder plus a set of named atomic
// counters. A nil *Trace is a valid no-op recorder: every method checks the
// receiver, so instrumented code never branches on "is tracing on".
type Trace struct {
	epoch time.Time
	node  int32

	mu     sync.Mutex
	spans  []Span
	query  string
	open   map[uint64]openSpan
	openID uint64

	counters sync.Map // string → *atomic.Int64

	// flight, when attached, receives a copy of every completed span — the
	// ring the health plane dumps on failure.
	flight atomic.Pointer[Flight]
}

// openSpan is a begun-but-unfinished interval, visible through Live.
type openSpan struct {
	name  string
	start time.Time
}

// NewTrace returns a recorder whose spans are attributed to the given node
// id (0 for the driving process). The epoch is the creation instant.
func NewTrace(node int32) *Trace {
	return &Trace{epoch: time.Now(), node: node}
}

// Epoch returns the instant span Starts are relative to (the trace's
// creation time). The zero time for a nil trace.
func (t *Trace) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// ctxKey carries the trace in a context; a zero-size key avoids allocation
// on lookup.
type ctxKey struct{}

// With returns a context carrying t. A nil t is allowed and yields a
// context From returns nil for.
func With(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// From returns the context's trace, or nil when tracing is off. The nil
// result is directly usable: all Trace methods are nil-safe.
func From(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Add is the counter shorthand protocol layers use:
// obs.Add(ctx, "gmw/and_rounds", 1). With no trace in ctx it is a no-op.
func Add(ctx context.Context, name string, delta int64) {
	From(ctx).Add(name, delta)
}

// SetQuery stamps the query tag ("q/<n>") onto every span recorded after
// this call, prefiguring the query-id tag multiplexing scheme.
func (t *Trace) SetQuery(q string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.query = q
	t.mu.Unlock()
}

// Span records an interval from start to now under the current query tag.
func (t *Trace) Span(name string, start time.Time) {
	if t == nil {
		return
	}
	t.SpanDur(name, start, time.Since(start))
}

// SpanDur records an interval of an explicit duration beginning at start.
func (t *Trace) SpanDur(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	query := t.query
	t.spans = append(t.spans, Span{
		Name:  name,
		Node:  t.node,
		Query: query,
		Start: start.Sub(t.epoch).Nanoseconds(),
		Dur:   d.Nanoseconds(),
	})
	t.mu.Unlock()
	if f := t.flight.Load(); f != nil {
		f.Record(FlightEvent{
			At:    start.Add(d).UnixNano(),
			Kind:  "span",
			Name:  name,
			Query: query,
			Node:  t.node,
			Dur:   d.Nanoseconds(),
		})
	}
}

// noopEnd is the closer Begin hands out on a nil trace; a shared instance
// keeps the disabled path allocation-free.
var noopEnd = func() {}

// Begin opens a span that is visible through Live until the returned closer
// runs; the closer then records it like Span would. The health plane's
// heartbeats snapshot open spans, so a phase that never finishes is still
// observable while it hangs.
func (t *Trace) Begin(name string) func() {
	if t == nil {
		return noopEnd
	}
	start := time.Now()
	t.mu.Lock()
	if t.open == nil {
		t.open = make(map[uint64]openSpan)
	}
	t.openID++
	id := t.openID
	t.open[id] = openSpan{name: name, start: start}
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.open, id)
		t.mu.Unlock()
		t.SpanDur(name, start, time.Since(start))
	}
}

// Live snapshots the currently-open spans. Each entry's Dur is the elapsed
// time so far; Start is relative to the trace epoch as usual. The result is
// sorted by Start then Name for determinism.
func (t *Trace) Live() []Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	out := make([]Span, 0, len(t.open))
	for _, o := range t.open {
		out = append(out, Span{
			Name:  o.name,
			Node:  t.node,
			Query: t.query,
			Start: o.start.Sub(t.epoch).Nanoseconds(),
			Dur:   now.Sub(o.start).Nanoseconds(),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// AttachFlight connects a flight recorder: every span completed after this
// call is mirrored into f's ring. Counter bumps are not: the protocol bumps
// counters every AND round, and mirroring them would flush every span and
// phase entry out of the ring within a few hundred rounds. Attaching nil
// detaches.
func (t *Trace) AttachFlight(f *Flight) {
	if t == nil {
		return
	}
	t.flight.Store(f)
}

// Add bumps the named counter. Counters are created on first use; after
// that an Add is one sync.Map load and one atomic add — safe for hot
// protocol loops.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	c, ok := t.counters.Load(name)
	if !ok {
		c, _ = t.counters.LoadOrStore(name, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(delta)
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Counters returns a snapshot of the counters.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64)
	t.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// AddSpans merges externally recorded spans (e.g. a cluster node's table
// shipped in its Done message) into this trace verbatim: the spans keep
// their own Node attribution, Query tags, and node-relative offsets.
func (t *Trace) AddSpans(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// AddCounters folds a counter snapshot into this trace's counters.
func (t *Trace) AddCounters(counters map[string]int64) {
	if t == nil {
		return
	}
	// Deterministic fold order keeps merged traces reproducible.
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Add(name, counters[name])
	}
}
