package obs

import "sync"

// FlightEvent is one entry in a flight recorder: a completed span, a phase
// entry or a recovery step, stamped with the wall clock of the machine that
// recorded it. Fields are exported so events travel over the cluster
// control plane (gob) and marshal into failure dumps (json).
type FlightEvent struct {
	// At is the event's wall-clock time in Unix nanoseconds on the
	// recording machine (span events use the span's end instant).
	At int64 `json:"at_unix_ns"`
	// Kind is "span", "phase" (a protocol phase entry) or "recover".
	Kind string `json:"kind"`
	// Name is the span taxonomy path, the phase, or the recovery step.
	Name string `json:"name"`
	// Query is the query tag ("q/<n>") current at record time, if any.
	Query string `json:"query,omitempty"`
	// Node is the recording node (0 = the driving process).
	Node int32 `json:"node"`
	// Dur is the span length in nanoseconds (span events only).
	Dur int64 `json:"dur_ns,omitempty"`
}

// defaultFlightCap bounds the recorder when NewFlight is given no capacity;
// at protocol-event rates it holds the final seconds of activity.
const defaultFlightCap = 256

// Flight is a bounded ring of recent FlightEvents — a black-box recorder.
// Instrumented code keeps appending forever at O(1) memory; when a query or
// fleet dies, the ring's tail is dumped into the error path so the failure
// report carries the last seconds of protocol activity instead of a bare
// error string. A nil *Flight is a valid no-op recorder.
type Flight struct {
	mu      sync.Mutex
	buf     []FlightEvent
	total   uint64 // events ever recorded
	drained uint64 // high-water mark handed out by DrainNew
}

// NewFlight returns a recorder retaining the last capacity events
// (defaultFlightCap when capacity <= 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = defaultFlightCap
	}
	return &Flight{buf: make([]FlightEvent, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is full.
func (f *Flight) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.total%uint64(len(f.buf))] = ev
	f.total++
	f.mu.Unlock()
}

// Append records a batch in order — the coordinator-side fold of events a
// node shipped in a heartbeat.
func (f *Flight) Append(evs []FlightEvent) {
	if f == nil || len(evs) == 0 {
		return
	}
	f.mu.Lock()
	for _, ev := range evs {
		f.buf[f.total%uint64(len(f.buf))] = ev
		f.total++
	}
	f.mu.Unlock()
}

// Events returns the retained tail in recording order.
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sliceLocked(f.oldestLocked())
}

// DrainNew returns the events recorded since the previous DrainNew, capped
// at the ring capacity (when more than a ringful arrived in between, the
// overwritten prefix is gone — the cap is what bounds heartbeat payloads).
func (f *Flight) DrainNew() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	from := f.drained
	if oldest := f.oldestLocked(); from < oldest {
		from = oldest
	}
	out := f.sliceLocked(from)
	f.drained = f.total
	return out
}

// oldestLocked is the sequence number of the oldest retained event.
func (f *Flight) oldestLocked() uint64 {
	if f.total > uint64(len(f.buf)) {
		return f.total - uint64(len(f.buf))
	}
	return 0
}

// sliceLocked copies events [from, total) out of the ring in order.
func (f *Flight) sliceLocked(from uint64) []FlightEvent {
	if from >= f.total {
		return nil
	}
	out := make([]FlightEvent, 0, f.total-from)
	for seq := from; seq < f.total; seq++ {
		out = append(out, f.buf[seq%uint64(len(f.buf))])
	}
	return out
}
