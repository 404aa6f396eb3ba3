package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// clockExchange fabricates the four timestamps of one ping/beat exchange
// for a node whose clock leads the local clock by offset, with the given
// one-way path delays and remote processing time (all in nanoseconds).
func clockExchange(t1, offset, out, back, proc int64) (int64, int64, int64, int64) {
	t2 := t1 + out + offset
	t3 := t2 + proc
	t4 := t3 - offset + back
	return t1, t2, t3, t4
}

func TestClockEstimatorSymmetric(t *testing.T) {
	var e ClockEstimator
	const offset = 5_000_000 // node clock 5ms ahead
	s, ok := e.Sample(clockExchange(1_000, offset, 2_000_000, 2_000_000, 1_000_000))
	if !ok {
		t.Fatal("symmetric sample rejected")
	}
	// Equal path delays make the NTP estimate exact.
	if s.Offset != offset*time.Nanosecond {
		t.Errorf("offset = %v, want %v", s.Offset, offset*time.Nanosecond)
	}
	if s.RTT != 4*time.Millisecond {
		t.Errorf("rtt = %v, want 4ms", s.RTT)
	}
	best, ok := e.Best()
	if !ok || best != s {
		t.Errorf("Best() = %+v, %v; want the only sample", best, ok)
	}
}

func TestClockEstimatorAsymmetric(t *testing.T) {
	var e ClockEstimator
	const offset = -7_000_000 // node clock 7ms behind
	s, ok := e.Sample(clockExchange(500, offset, 1_000_000, 3_000_000, 0))
	if !ok {
		t.Fatal("asymmetric sample rejected")
	}
	// Asymmetric paths bias the estimate by at most half the RTT.
	err := s.Offset - offset*time.Nanosecond
	if err < 0 {
		err = -err
	}
	if err > s.RTT/2 {
		t.Errorf("offset error %v exceeds RTT/2 = %v", err, s.RTT/2)
	}
}

func TestClockEstimatorPrefersMinRTT(t *testing.T) {
	var e ClockEstimator
	// A queuing-delayed exchange distorts the offset; a clean one follows.
	e.Sample(clockExchange(0, 1_000_000, 500_000, 40_000_000, 0)) // noisy
	e.Sample(clockExchange(0, 1_000_000, 500_000, 500_000, 0))    // clean
	best, ok := e.Best()
	if !ok {
		t.Fatal("no best sample")
	}
	if best.Offset != time.Millisecond {
		t.Errorf("best offset = %v, want the clean sample's 1ms", best.Offset)
	}
	if best.RTT != time.Millisecond {
		t.Errorf("best rtt = %v, want 1ms", best.RTT)
	}
	// The window is bounded: flooding it with clean low-RTT samples evicts
	// the noisy one entirely.
	for i := 0; i < 2*clockWindow; i++ {
		e.Sample(clockExchange(int64(i)*1_000, 1_000_000, 600_000, 600_000, 0))
	}
	best, _ = e.Best()
	if best.RTT > 2*time.Millisecond {
		t.Errorf("stale high-RTT sample survived the window: %+v", best)
	}
}

func TestClockEstimatorRejectsStepped(t *testing.T) {
	var e ClockEstimator
	if _, ok := e.Sample(100, 900, 800, 200); ok { // t3 < t2
		t.Error("accepted an exchange with remote time going backwards")
	}
	if _, ok := e.Sample(500, 600, 700, 400); ok { // t4 < t1
		t.Error("accepted an exchange with local time going backwards")
	}
	if _, ok := e.Best(); ok {
		t.Error("Best() reports a sample after only rejected exchanges")
	}
}

func TestShiftSpans(t *testing.T) {
	in := []Span{{Name: "a", Start: 100, Dur: 5}, {Name: "b", Start: 700, Dur: 9}}
	out := ShiftSpans(in, -40)
	if in[0].Start != 100 {
		t.Error("ShiftSpans mutated its input")
	}
	if out[0].Start != 60 || out[1].Start != 660 {
		t.Errorf("shifted starts = %d, %d; want 60, 660", out[0].Start, out[1].Start)
	}
	if out[0].Dur != 5 || out[1].Dur != 9 {
		t.Error("ShiftSpans changed durations")
	}
	if got := ShiftSpans(nil, 10); got != nil {
		t.Errorf("ShiftSpans(nil) = %v, want nil", got)
	}
}

// TestChromeTraceGoldenAligned is the offset-applied counterpart of
// TestChromeTraceGolden: two nodes whose clocks disagree both enter
// phase/init at the same true instant, and after the per-node rebase
// (shift = node epoch − estimated offset − driver epoch) the exported
// timestamps coincide exactly.
func TestChromeTraceGoldenAligned(t *testing.T) {
	const driverEpoch = 1_000_000 // driver trace epoch, unix ns
	node1 := []Span{
		{Name: "phase/init", Node: 1, Query: "q/1", Start: 0, Dur: 4_000},
		{Name: "iter/0/compute", Node: 1, Query: "q/1", Start: 4_000, Dur: 6_000},
	}
	node2 := []Span{
		{Name: "phase/init", Node: 2, Query: "q/1", Start: 8_000, Dur: 4_000},
		{Name: "iter/0/compute", Node: 2, Query: "q/1", Start: 12_000, Dur: 6_000},
	}
	// Node 1's epoch reads 1_010_000 on its own clock, which runs 4µs
	// ahead; node 2's reads 995_000 on a clock 3µs behind. In driver time
	// both epochs are therefore 1_006_000 and 998_000.
	shift1 := int64(1_010_000) - 4_000 - driverEpoch
	shift2 := int64(995_000) - (-3_000) - driverEpoch
	merged := append(ShiftSpans(node1, shift1), ShiftSpans(node2, shift2)...)

	var buf bytes.Buffer
	if err := writeChrome(&buf, merged, nil); err != nil {
		t.Fatal(err)
	}
	golden := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"node 1"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"node 2"}},` +
		`{"name":"phase/init","ph":"X","ts":6,"dur":4,"pid":1,"tid":0,"args":{"query":"q/1"}},` +
		`{"name":"iter/0/compute","ph":"X","ts":10,"dur":6,"pid":1,"tid":0,"args":{"query":"q/1"}},` +
		`{"name":"phase/init","ph":"X","ts":6,"dur":4,"pid":2,"tid":0,"args":{"query":"q/1"}},` +
		`{"name":"iter/0/compute","ph":"X","ts":10,"dur":6,"pid":2,"tid":0,"args":{"query":"q/1"}}` +
		`]}`
	if got := strings.TrimSpace(buf.String()); got != golden {
		t.Fatalf("aligned golden mismatch:\n got: %s\nwant: %s", got, golden)
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge("dstress_test_gauge", "A test gauge.")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Errorf("value = %v, want 2.25", got)
	}
	snap := g.Snapshot()
	if snap.Name != "dstress_test_gauge" || snap.Help != "A test gauge." || snap.Value != 2.25 {
		t.Errorf("snapshot = %+v", snap)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 || nilG.Name() != "" || nilG.Help() != "" {
		t.Error("nil gauge is not a zero no-op")
	}
}

func TestGaugeConcurrent(t *testing.T) {
	g := NewGauge("g", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8*500 {
		t.Errorf("value = %v, want %d", got, 8*500)
	}
}

func TestBeginLive(t *testing.T) {
	tr := NewTrace(3)
	tr.SetQuery("q/9")
	end1 := tr.Begin("phase/init")
	end2 := tr.Begin("iter/0/compute")
	live := tr.Live()
	if len(live) != 2 {
		t.Fatalf("Live() has %d spans, want 2", len(live))
	}
	for _, s := range live {
		if s.Node != 3 || s.Query != "q/9" {
			t.Errorf("live span %+v missing node/query attribution", s)
		}
		if s.Dur < 0 {
			t.Errorf("live span %q has negative elapsed %d", s.Name, s.Dur)
		}
	}
	if len(tr.Spans()) != 0 {
		t.Error("open spans leaked into the completed-span table")
	}
	end1()
	if live := tr.Live(); len(live) != 1 || live[0].Name != "iter/0/compute" {
		t.Errorf("after closing one span Live() = %+v", live)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "phase/init" {
		t.Fatalf("completed spans = %+v, want the closed phase/init", spans)
	}
	end2()
	if len(tr.Live()) != 0 {
		t.Error("Live() not empty after all spans closed")
	}
}

func TestFlightRing(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 3; i++ {
		f.Record(FlightEvent{At: int64(i), Kind: "span", Name: "a"})
	}
	got := f.DrainNew()
	if len(got) != 3 || got[0].At != 0 || got[2].At != 2 {
		t.Fatalf("first drain = %+v, want events 0..2", got)
	}
	if got := f.DrainNew(); got != nil {
		t.Fatalf("second drain = %+v, want nil", got)
	}
	// Overflow: more than a ringful between drains keeps only the tail.
	for i := 3; i < 10; i++ {
		f.Record(FlightEvent{At: int64(i), Kind: "span", Name: "a"})
	}
	got = f.DrainNew()
	if len(got) != 4 || got[0].At != 6 || got[3].At != 9 {
		t.Fatalf("overflow drain = %+v, want events 6..9", got)
	}
	// Events always returns the retained tail, independent of draining.
	evs := f.Events()
	if len(evs) != 4 || evs[0].At != 6 || evs[3].At != 9 {
		t.Fatalf("Events() = %+v, want events 6..9", evs)
	}
	var nilF *Flight
	nilF.Record(FlightEvent{})
	nilF.Append([]FlightEvent{{}})
	if nilF.Events() != nil || nilF.DrainNew() != nil {
		t.Error("nil flight is not a no-op")
	}
}

func TestFlightAttachment(t *testing.T) {
	tr := NewTrace(2)
	tr.SetQuery("q/4")
	f := NewFlight(8)
	tr.AttachFlight(f)
	tr.SpanDur("iter/1/compute", time.Now().Add(-time.Millisecond), time.Millisecond)
	// Counter bumps stay out of the ring: the protocol bumps counters every
	// AND round, and mirroring them would flush the spans out of it.
	for i := 0; i < 2*defaultFlightCap; i++ {
		tr.Add("gmw/and_rounds", 3)
	}
	if got := tr.Counters()["gmw/and_rounds"]; got != 6*defaultFlightCap {
		t.Errorf("counter = %d, want %d", got, 6*defaultFlightCap)
	}
	evs := f.Events()
	if len(evs) != 1 {
		t.Fatalf("flight captured %d events, want the span alone: %+v", len(evs), evs)
	}
	if evs[0].Kind != "span" || evs[0].Name != "iter/1/compute" || evs[0].Node != 2 ||
		evs[0].Query != "q/4" || evs[0].Dur != time.Millisecond.Nanoseconds() {
		t.Errorf("span event = %+v", evs[0])
	}
	if evs[0].At == 0 {
		t.Error("flight event missing its wall-clock stamp")
	}
	tr.AttachFlight(nil)
	tr.SpanDur("iter/2/compute", time.Now(), time.Millisecond)
	if len(f.Events()) != 1 {
		t.Error("detached flight still receives events")
	}
}

func TestProgressContext(t *testing.T) {
	ReportProgress(context.Background(), "phase/init") // no callback: no-op
	if ProgressFrom(context.Background()) != nil {
		t.Error("ProgressFrom(background) is not nil")
	}
	var mu sync.Mutex
	var phases []string
	ctx := WithProgress(context.Background(), func(p string) {
		mu.Lock()
		phases = append(phases, p)
		mu.Unlock()
	})
	ReportProgress(ctx, "phase/init")
	ReportProgress(ctx, "iter/0/compute")
	mu.Lock()
	defer mu.Unlock()
	if len(phases) != 2 || phases[0] != "phase/init" || phases[1] != "iter/0/compute" {
		t.Errorf("phases = %v", phases)
	}
}
