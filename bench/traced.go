package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dstress"
	"dstress/internal/obs"
)

// tracedQuery runs one query with the program's obs.Trace on its context
// and the benchmark's own span around it, then files the program's spans
// of that query under the benchmark's span. It returns the spans and the
// counter increments the query produced.
func tracedQuery(ctx context.Context, dep deployment, orc oracle, tr *obs.Trace, rec *recorder, parent int, query string) (sample, outcome, []obs.Span, map[string]int64) {
	before, c0 := len(tr.Spans()), tr.Counters()
	id, end := rec.begin(parent, "query", query)
	s, out := runQuery(obs.With(ctx, tr), dep, 0, orc)
	end()
	spans := tr.Spans()[before:]
	rec.adopt(id, query, tr.Epoch(), spans)
	counters := tr.Counters()
	for name, v := range c0 {
		counters[name] -= v
	}
	return s, out, spans, counters
}

// busy sums the durations of the spans whose (engine-neutral) name
// satisfies match.
func busy(spans []obs.Span, match func(name string) bool) float64 {
	var ns int64
	for _, s := range spans {
		if match(stripQueryRoot(s.Name)) {
			ns += s.Dur
		}
	}
	return float64(ns) / 1e9
}

func isGMWSpan(name string) bool { return strings.HasSuffix(name, "/gmw") }
func isTxSpan(name string) bool  { return strings.HasPrefix(name, "tx/") }
func isTxRole(role string) func(string) bool {
	return func(name string) bool { return isTxSpan(name) && strings.HasSuffix(name, "/"+role) }
}

// sumCounters adds up the counters named "net/<prefix>/<leaf>".
func sumCounters(counters map[string]int64, leaf string) float64 {
	var total int64
	for name, v := range counters {
		if strings.HasPrefix(name, "net/") && strings.HasSuffix(name, "/"+leaf) {
			total += v
		}
	}
	return float64(total)
}

// layerSeries extracts one traced query's per-layer numbers.
func layerSeries(add func(string, float64), w workload, wall time.Duration, rep *dstress.Report, spans []obs.Span, counters map[string]int64) {
	add("vertex.phase_init_s", rep.InitTime.Seconds())
	add("vertex.phase_compute_s", rep.ComputeTime.Seconds())
	add("vertex.phase_transfer_s", rep.CommTime.Seconds())
	add("vertex.phase_agg_s", rep.AggTime.Seconds())
	add("vertex.phase_init_bytes", float64(rep.InitBytes))
	add("vertex.phase_compute_bytes", float64(rep.ComputeBytes))
	add("vertex.phase_transfer_bytes", float64(rep.CommBytes))
	add("vertex.phase_agg_bytes", float64(rep.AggBytes))
	add("vertex.unattributed_share", 1-rep.TotalTime().Seconds()/wall.Seconds())

	add("gmw.busy_s", busy(spans, isGMWSpan))
	add("gmw.and_gates", float64(counters["gmw/and_gates"]))
	add("gmw.and_rounds", float64(counters["gmw/and_rounds"]))
	add("transfer.busy_s", busy(spans, isTxSpan))
	for _, role := range []string{"send", "relay", "adjust", "recv"} {
		add("transfer."+role+"_busy_s", busy(spans, isTxRole(role)))
	}
	add("ot.derand_bits", float64(counters["ot/derand_bits"]))
	add("net.msgs_sent", sumCounters(counters, "msgs_sent"))
	add("net.bytes_sent", sumCounters(counters, "bytes_sent"))

	// Control plane: what the driver waited beyond the slowest node's own
	// phases (job fan-out, done collection). Only a fleet has it.
	if len(rep.NodePhases) > 0 {
		var slowest time.Duration
		for _, np := range rep.NodePhases {
			slowest = max(slowest, np.InitTime+np.ComputeTime+np.CommTime+np.AggTime)
		}
		add("cluster.ctrl_s", (wall - slowest).Seconds())
	}
	// Front end: what Service.Do added around the session's own query.
	if w.engine == "mux" {
		add("serve.admit_us", float64((wall - rep.WallTime).Microseconds()))
	}
}

// variantWall opens an equivalent-query variant of a workload, warms it,
// and returns the wall time of one traced query on it.
func variantWall(ctx context.Context, w workload, seed int64, rec *recorder, parent int, count func(sample)) (float64, error) {
	job, orc, err := buildJob(w, seed)
	if err != nil {
		return 0, err
	}
	id, end := rec.begin(parent, "variant/"+w.Name, "")
	defer end()
	dep, _, err := openWarm(ctx, w, job, orc, true, count)
	if err != nil {
		return 0, err
	}
	s, _, _, _ := tracedQuery(ctx, dep, orc, obs.NewTrace(0), rec, id, w.Name+"/1")
	count(s)
	if err := dep.close(ctx); err != nil {
		return 0, err
	}
	if s.failed {
		return 0, fmt.Errorf("bench: variant %s failed its query", w.Name)
	}
	return s.wall.Seconds(), nil
}

// runTraced produces the per-layer metrics of one workload: untraced and
// traced queries alternate on one standing deployment for about half the
// given time (their ratio is the tracing overhead), then every layer is
// calibrated directly, then the workload's equivalent-query variants run.
// The spans are written to <outDir>/trace-<workload>.json. A smoke pass
// runs one pair of queries and stops there.
func runTraced(ctx context.Context, w workload, seed int64, seconds float64, smoke bool, outDir string) (passResult, error) {
	res := passResult{Workload: w.Name}
	count := func(s sample) {
		res.Attempted++
		if s.failed {
			res.Failed++
		}
	}
	job, orc, err := buildJob(w, seed)
	if err != nil {
		return res, err
	}
	prog := job.Program
	if prog == nil {
		if prog, err = job.Spec.Build(); err != nil {
			return res, err
		}
	}
	rec := newRecorder()
	root, endRoot := rec.begin(0, "workload/"+w.Name, "")
	tr := obs.NewTrace(0)

	// A service traces according to the context it was opened with, so
	// en-mux stands up one untraced and one traced service; sessions take
	// the trace per query.
	_, endOpen := rec.begin(root, "open+warm", "")
	plain, _, err := openWarm(ctx, w, job, orc, !smoke, count)
	if err != nil {
		return res, err
	}
	traced := plain
	if w.engine == "mux" {
		if traced, _, err = openWarm(obs.With(ctx, tr), w, job, orc, !smoke, count); err != nil {
			return res, err
		}
	}
	endOpen()

	series := make(map[string][]float64)
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var plainWalls, tracedWalls []float64
	cpu0, start := processCPU(), time.Now()
	for pair := 1; ; pair++ {
		var (
			s, ts    sample
			out      outcome
			spans    []obs.Span
			counters map[string]int64
		)
		untraced := func() { s, _ = runQuery(ctx, plain, 0, orc) }
		withTrace := func() {
			ts, out, spans, counters = tracedQuery(ctx, traced, orc, tr, rec, root, fmt.Sprintf("%s/%d", w.Name, pair))
		}
		// Alternate which goes first, so that whatever favours the second
		// query of a pair does not read as tracing overhead.
		if pair%2 == 1 {
			untraced()
			withTrace()
		} else {
			withTrace()
			untraced()
		}
		count(s)
		count(ts)
		if s.failed || ts.failed {
			break
		}
		plainWalls = append(plainWalls, s.wall.Seconds())
		tracedWalls = append(tracedWalls, ts.wall.Seconds())
		layerSeries(add, w, ts.wall, out.report, spans, counters)
		if smoke || time.Since(start).Seconds() >= seconds/2 {
			break
		}
	}
	if n := len(plainWalls); n > 0 {
		add("proc.cpu_s_per_query", (processCPU()-cpu0).Seconds()/float64(2*n))
		add("obs.trace_overhead_share", median(tracedWalls)/median(plainWalls)-1)
	}
	_, endClose := rec.begin(root, "close", "")
	err = plain.close(ctx)
	if traced != plain {
		if cerr := traced.close(ctx); err == nil {
			err = cerr
		}
	}
	endClose()
	if err != nil {
		return res, err
	}

	if !smoke && res.Failed == 0 {
		calib, err := calibrate(ctx, w, prog, rec, root)
		if err != nil {
			return res, err
		}
		for name, v := range calib {
			add(name, v)
		}
		if err := equivalentDeltas(ctx, w, seed, median(tracedWalls), rec, root, add, count); err != nil {
			return res, err
		}
	}
	add("proc.peak_rss_mb", peakRSSMiB())
	endRoot()

	for _, m := range perLayer {
		res.Values = append(res.Values, newValue(m, series[m.Name]...))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	return res, rec.write(filepath.Join(outDir, "trace-"+w.Name+".json"), w.Name)
}

// equivalentDeltas runs the variants of one Job that differ by a layer:
// en-sim → the same with IKNP → en-tcp → the same with Recover. Each delta
// is attributed to the layers the step adds.
func equivalentDeltas(ctx context.Context, w workload, seed int64, wall float64, rec *recorder, parent int, add func(string, float64), count func(sample)) error {
	simIKNP, _ := workloadByName("en-sim")
	simIKNP.Name, simIKNP.otMode = "en-sim+iknp", dstress.OTIKNP
	switch w.Name {
	case "en-sim":
		v, err := variantWall(ctx, simIKNP, seed, rec, parent, count)
		if err != nil {
			return err
		}
		add("delta.iknp_s", v-wall)
	case "en-tcp":
		v, err := variantWall(ctx, simIKNP, seed, rec, parent, count)
		if err != nil {
			return err
		}
		add("delta.tcp_s", wall-v)
		rcv := w
		rcv.Name, rcv.recover = "en-tcp+recover", true
		if v, err = variantWall(ctx, rcv, seed, rec, parent, count); err != nil {
			return err
		}
		add("delta.checkpoint_s", v-wall)
	}
	return nil
}
