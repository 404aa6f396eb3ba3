package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"dstress/internal/obs"
)

func TestSummaryMedianMinMaxQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary of 1..5 = %+v", s)
	}
	// Python: statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
	if s.Q1 != 1.5 || s.Q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v; want 1.5, 4.5", s.Q1, s.Q3)
	}
	if got := s.spread(); got != 1 {
		t.Errorf("spread of 1..5 = %v, want (4.5-1.5)/3 = 1", got)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
	// Python: statistics.quantiles([10, 11], n=4) == [9.75, 11.25]
	if s := summarize([]float64{10, 11}); s.Q1 != 9.75 || s.Q3 != 11.25 {
		t.Errorf("quartiles of two samples = %v, %v; want 9.75, 11.25", s.Q1, s.Q3)
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.spread() != 0 {
		t.Errorf("one sample: %+v spread %v", s, s.spread())
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("no samples: %+v", s)
	}
}

// fixedSpan adds a span with explicit times, for tests.
func (r *recorder) fixedSpan(parent int, name, query string, start, end int64) int {
	id, _ := r.begin(parent, name, query)
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	return id
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	r := newRecorder()
	root := r.fixedSpan(0, "query", "w/1", 0, 100)
	a := r.fixedSpan(root, "a", "w/1", 10, 40)
	r.fixedSpan(root, "b", "w/1", 30, 60)    // overlaps a: union is 10..60
	r.fixedSpan(root, "c", "w/1", 90, 130)   // sticks out: clipped to 90..100
	r.fixedSpan(a, "a.child", "w/1", 10, 40) // covers a entirely
	self := selfTimes(r.snapshot())
	if self[root] != 100-50-10 {
		t.Errorf("root self time = %d, want 40", self[root])
	}
	if self[a] != 0 {
		t.Errorf("fully covered span self time = %d, want 0", self[a])
	}
	if leaf := self[a+1]; leaf != 30 {
		t.Errorf("leaf self time = %d, want its duration 30", leaf)
	}
}

func TestAdoptLinksProgramSpansUnderTheQuery(t *testing.T) {
	r := newRecorder()
	root, end := r.begin(0, "workload/x", "")
	q, endQ := r.begin(root, "query", "x/1")
	tr := obs.NewTrace(0)
	t0 := time.Now()
	for _, name := range []string{
		"iter/0/blk/3/gmw", "iter/0/compute", "q/7/tx/0/1/2/send", "iter/0/communicate", "agg/root", "phase/agg", "phase/init",
	} {
		tr.SpanDur(name, t0, time.Millisecond)
	}
	r.adopt(q, "x/1", tr.Epoch(), tr.Spans())
	endQ()
	end()

	spans := r.snapshot()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	for child, parent := range map[string]string{
		"iter/0/blk/3/gmw": "iter/0/compute",
		"tx/0/1/2/send":    "iter/0/communicate",
		"agg/root":         "phase/agg",
		"iter/0/compute":   "query",
		"phase/init":       "query",
		"query":            "workload/x",
	} {
		if got := byName[child].Parent; got != byName[parent].ID {
			t.Errorf("%s: parent id %d, want %d (%s)", child, got, byName[parent].ID, parent)
		}
	}
	for _, s := range spans {
		if s.Name != "workload/x" && s.Query != "x/1" {
			t.Errorf("span %s carries query id %q, want the one id of its query", s.Name, s.Query)
		}
	}
	var nilRec *recorder
	if id, end := nilRec.begin(0, "x", ""); id != 0 {
		t.Errorf("nil recorder handed out span id %d", id)
	} else {
		end()
	}
}

func TestOracleExactAndLaplaceTail(t *testing.T) {
	exact := oracle{ref: 42}
	if !exact.ok(42) || exact.ok(43) {
		t.Error("epsilon 0: only the reference itself is a right value")
	}
	noised := oracle{ref: 1000, scale: 10 / 0.23}
	limit := int64(noised.scale * math.Log(1/wrongTailP))
	if !noised.ok(1000+limit-1) || !noised.ok(1000-limit+1) {
		t.Error("a release inside the 1e-9 Laplace tail was called wrong")
	}
	if noised.ok(1000+limit+2) || noised.ok(1000-limit-2) {
		t.Error("a release beyond the 1e-9 Laplace tail was called right")
	}
}

func TestGnmEdgesSameSeedSameGraphExactCount(t *testing.T) {
	w, _ := workloadByName("deg-p256-sim")
	first, err := gnmEdges(w.n, w.d, w.edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := gnmEdges(w.n, w.d, w.edges, 1)
	if !reflect.DeepEqual(first, again) {
		t.Error("the same seed gave two different graphs")
	}
	other, _ := gnmEdges(w.n, w.d, w.edges, 2)
	if reflect.DeepEqual(first, other) {
		t.Error("two seeds gave the same graph")
	}
	for seed := int64(0); seed < 300; seed++ {
		edges, err := gnmEdges(w.n, w.d, w.edges, seed)
		if err != nil || len(edges) != w.edges {
			t.Fatalf("seed %d: %d edges, err %v; want %d", seed, len(edges), err, w.edges)
		}
		out, in := make([]int, w.n), make([]int, w.n)
		for _, e := range edges {
			out[e[0]]++
			in[e[1]]++
			if e[0] == e[1] || out[e[0]] > w.d || in[e[1]] > w.d {
				t.Fatalf("seed %d: edge %v breaks the degree bound", seed, e)
			}
		}
	}
}

func TestCompareRepetitionsVerdicts(t *testing.T) {
	rep := func(query, sampleSpread float64) []passResult {
		return []passResult{{Workload: "w", Values: []value{
			{Name: "query_s", Value: query, N: 9, Spread: sampleSpread},
			{Name: "gmw.busy_s", Value: 1}, // per-layer: no bound, no verdict
		}}}
	}
	// Nine samples: the median scatters 1.2533/3 as widely as a sample.
	for _, tc := range []struct {
		a, b, sampleSpread float64
		want               string
	}{
		{1.00, 1.05, 0.05, "ok"},
		{1.00, 1.30, 0.05, "differ"},
		{1.00, 1.01, 0.30, "ok"},         // median spread 12.5% < 15%
		{1.00, 1.01, 0.40, "unresolved"}, // median spread 16.7% > 15%
	} {
		got := compareRepetitions([][]passResult{rep(tc.a, tc.sampleSpread), rep(tc.b, tc.sampleSpread)})
		if len(got) != 1 || got[0].Verdict != tc.want {
			t.Errorf("medians %v and %v, sample spread %v: %+v, want one verdict %q", tc.a, tc.b, tc.sampleSpread, got, tc.want)
		}
	}
	// Four repetitions: the spread is read off the medians themselves.
	got := compareRepetitions([][]passResult{rep(1.0, 0), rep(1.3, 0), rep(1.0, 0), rep(1.3, 0)})
	if len(got) != 1 || got[0].Verdict != "unresolved" {
		t.Errorf("four medians alternating by 30%%: %+v, want unresolved", got)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the declared contract and the code
// that prints the metrics from drifting apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []metric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			if got := declared[i]; got != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the code %+v", kind, i, got, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the code %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestCalibrateReportsEveryLayerCost runs each calibration loop once at
// smoke size and checks that every calibrated metric is defined and
// positive.
func TestCalibrateReportsEveryLayerCost(t *testing.T) {
	logw = io.Discard
	w, _ := workloadByName("en-sim")
	w = smokeSized(w)
	prog, err := enSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := calibrate(ctx, w, prog, newRecorder(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 15 {
		t.Errorf("only %d calibrated metrics: %v", len(got), got)
	}
	declared := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	for name, v := range got {
		if !declared[name] {
			t.Errorf("%s is calibrated but not a declared per-layer metric", name)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive cost", name, v)
		}
	}
}

// TestSmokeEveryWorkloadBothPasses is the -smoke path: four nodes, blocks
// of two, one iteration, one query per workload and pass. It exercises the
// plumbing of every workload (engines, service, oracle, span adoption,
// trace files) without paying for the timed runs.
func TestSmokeEveryWorkloadBothPasses(t *testing.T) {
	logw = io.Discard
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := t.TempDir()
	start := time.Now()
	passes, err := runSuite(ctx, workloads, 1, 0, -1, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 2*len(workloads) {
		t.Fatalf("%d passes, want an end-to-end and a traced pass for each of %d workloads", len(passes), len(workloads))
	}
	for i, p := range passes {
		if p.Attempted == 0 || p.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", p.Workload, p.Attempted, p.Failed)
		}
		defs := endToEnd
		if i%2 == 1 {
			defs = perLayer
		}
		if len(p.Values) != len(defs) {
			t.Fatalf("%s pass %d: %d values, want %d", p.Workload, i%2, len(p.Values), len(defs))
		}
		for j, v := range p.Values {
			if v.Name != defs[j].Name {
				t.Errorf("%s: value %d is %s, want %s", p.Workload, j, v.Name, defs[j].Name)
			}
			if i%2 == 0 && !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", p.Workload, v.Name, v.Value)
			}
			// Per-layer numbers taken from the query itself (not from the
			// calibration the smoke path skips) must have been recorded.
			fromQuery := map[string]bool{
				"vertex.phase_compute_s": true, "gmw.busy_s": true, "gmw.and_gates": true, "transfer.busy_s": true,
				"ot.derand_bits": true, "net.bytes_sent": true, "proc.cpu_s_per_query": true,
				"transfer.relay_busy_s": p.Workload == "en-tcp", "cluster.ctrl_s": p.Workload == "en-tcp",
				"serve.admit_us": p.Workload == "en-mux",
			}
			if i%2 == 1 && fromQuery[v.Name] && !(v.Value > 0) {
				t.Errorf("%s: per-layer metric %s = %v (n=%d), want a recorded positive value", p.Workload, v.Name, v.Value, v.N)
			}
		}
	}
	for _, w := range workloads {
		data, err := os.ReadFile(out + "/trace-" + w.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []struct {
				Name  string
				Query string
			}
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		gmw := 0
		for _, s := range doc.Spans {
			if isGMWSpan(s.Name) && s.Query == w.Name+"/1" {
				gmw++
			}
		}
		if gmw == 0 {
			t.Errorf("%s: the trace file holds no block-MPC span of the traced query", w.Name)
		}
	}
	t.Logf("smoke took %v", time.Since(start).Round(time.Millisecond))
}
