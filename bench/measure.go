package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"dstress"
)

// sample is one timed query.
type sample struct {
	wall      time.Duration
	nodeBytes float64
	failed    bool
}

// passResult is what one pass over one workload measured.
type passResult struct {
	Workload  string  `json:"workload"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Values    []value `json:"values"`
}

// value is one reported metric: a median over N samples, with the
// extremes and the quartile spread where there is more than one sample.
type value struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
}

func newValue(m metricDef, xs ...float64) value {
	s := summarize(xs)
	return value{Name: m.Name, Value: s.Median, Unit: m.Unit, N: s.N, Min: s.Min, Max: s.Max, Spread: s.spread()}
}

// runQuery runs one query and checks it against the oracle. An error, a
// refusal and a wrong value all count as failed.
func runQuery(ctx context.Context, dep deployment, client int, orc oracle) (sample, outcome) {
	start := time.Now()
	out, err := dep.query(ctx, client)
	s := sample{wall: time.Since(start)}
	switch {
	case err != nil:
		fmt.Fprintf(logw, "  query failed: %v\n", err)
		s.failed = true
	case !orc.ok(out.raw):
		fmt.Fprintf(logw, "  wrong value: released %d, reference %d\n", out.raw, orc.ref)
		s.failed = true
	default:
		s.nodeBytes = out.report.AvgNodeBytes
	}
	return s, out
}

// openWarm stands a deployment up and, if warm is set, runs its first query
// (counted through count; a failure is returned as an error, since nothing
// can be measured on that deployment). It returns the set-up time the
// deployment paid: the wall of the open plus, on tcp, the first query's
// Report.SetupTime (the cluster defers its GMW/OT handshakes into the first
// query's Init).
func openWarm(ctx context.Context, w workload, job dstress.Job, orc oracle, warm bool, count func(sample)) (deployment, float64, error) {
	dep, openWall, err := openDeployment(ctx, w, job)
	if err != nil {
		return nil, 0, err
	}
	setup := openWall.Seconds()
	if warm {
		first, out := runQuery(ctx, dep, 0, orc)
		count(first)
		if first.failed {
			return nil, 0, errors.Join(fmt.Errorf("bench: %s: the first query failed", w.Name), dep.close(ctx))
		}
		if w.engine == "tcp" {
			setup += out.report.SetupTime.Seconds()
		}
	}
	return dep, setup, nil
}

// runUntraced measures the end-to-end metrics of one workload with tracing
// off: set-up cycles, then a closed loop of timed queries for the given
// time on a standing, warmed deployment.
func runUntraced(ctx context.Context, w workload, seed int64, seconds float64, warm bool) (passResult, error) {
	res := passResult{Workload: w.Name}
	job, orc, err := buildJob(w, seed)
	if err != nil {
		return res, err
	}
	count := func(s sample) {
		res.Attempted++
		if s.failed {
			res.Failed++
		}
	}

	// Set-up cycles. A tcp cycle must run a query to pay the handshakes;
	// sim cycles need none. The standing deployment's open is the last.
	var setups []float64
	for c := 1; c < w.setupCycles; c++ {
		dep, setup, err := openWarm(ctx, w, job, orc, warm && w.engine == "tcp", count)
		if err != nil {
			return res, err
		}
		if err := dep.close(ctx); err != nil {
			return res, err
		}
		setups = append(setups, setup)
	}
	dep, setup, err := openWarm(ctx, w, job, orc, warm, count)
	if err != nil {
		return res, err
	}
	setups = append(setups, setup)
	for c := 1; warm && c < w.clients; c++ { // every client's tenant path is warm
		s, _ := runQuery(ctx, dep, c, orc)
		count(s)
	}

	// Timed window: each client sends its next query when the previous
	// one completes, until the time is up.
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				s, _ := runQuery(ctx, dep, c, orc)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
				if s.failed || time.Since(start).Seconds() >= seconds {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	if err := dep.close(ctx); err != nil {
		return res, err
	}

	var walls, mbs []float64
	for _, s := range samples {
		count(s)
		if !s.failed {
			walls = append(walls, s.wall.Seconds())
			mbs = append(mbs, s.nodeBytes/(1<<20))
		}
	}
	res.Values = []value{
		newValue(mQueryS, walls...),
		newValue(mQueriesPerS, float64(len(walls))/window),
		newValue(mSetupS, setups...),
		newValue(mNodeMB, mbs...),
	}
	return res, nil
}

// processCPU is the process's cumulative user+system CPU time; on the
// loopback fleet that covers every node.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
