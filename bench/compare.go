package main

import "math"

// verdict says whether repeated runs of the same code agree on one
// end-to-end metric of one workload.
type verdict struct {
	Name     string    `json:"name"`
	Workload string    `json:"workload"`
	Medians  []float64 `json:"medians"`
	// Differ is the distance between the largest and the smallest median
	// as a share of their median.
	Differ float64 `json:"differ"`
	// Spread is the run-to-run noise of the median, as a share of it: with
	// four or more repetitions, the distance between the quartiles of
	// their medians; with fewer, an estimate from the samples inside the
	// noisiest repetition (medianSpread).
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// Verdict is "ok" when the medians agree within the bound,
	// "unresolved" when the spread is wider than the bound (the bound
	// cannot be read against such noise), and "differ" otherwise.
	Verdict string `json:"verdict"`
}

// medianSpread estimates, from the n samples inside one run, how far apart
// the quartiles of that run's median would lie over many runs: the
// median of n samples scatters 1.2533/sqrt(n) as widely as one sample.
func medianSpread(v value) float64 {
	if v.N < 2 {
		return 0
	}
	return v.Spread * 1.2533 / math.Sqrt(float64(v.N))
}

// compareRepetitions is the check "two sets of runs of the same code agree
// within the benchmark's own bounds", for every end-to-end metric and
// workload present in every repetition.
func compareRepetitions(reps [][]passResult) []verdict {
	type key struct{ name, workload string }
	var order []key
	byKey := make(map[key][]value)
	for _, passes := range reps {
		for _, p := range passes {
			for _, v := range p.Values {
				k := key{v.Name, p.Workload}
				if _, seen := byKey[k]; !seen {
					order = append(order, k)
				}
				byKey[k] = append(byKey[k], v)
			}
		}
	}
	var out []verdict
	for _, k := range order {
		vals := byKey[k]
		var def *metricDef
		for i := range endToEnd {
			if endToEnd[i].Name == k.name {
				def = &endToEnd[i]
			}
		}
		if def == nil || len(vals) != len(reps) {
			continue
		}
		v := verdict{Name: k.name, Workload: k.workload, Bound: def.Bound}
		for _, val := range vals {
			v.Medians = append(v.Medians, val.Value)
			v.Spread = max(v.Spread, medianSpread(val))
		}
		across := summarize(v.Medians)
		if across.Median != 0 {
			v.Differ = (across.Max - across.Min) / across.Median
		}
		if len(reps) >= 4 {
			v.Spread = across.spread()
		}
		switch {
		case v.Spread > v.Bound:
			v.Verdict = "unresolved"
		case v.Differ <= v.Bound:
			v.Verdict = "ok"
		default:
			v.Verdict = "differ"
		}
		out = append(out, v)
	}
	return out
}
