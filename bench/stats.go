package main

import "sort"

// summary describes one metric's samples. With the sample counts a run
// affords (n ≤ 20) no tail percentile has ten samples beyond it, so the
// summary stops at the extremes and the quartiles.
type summary struct {
	N                int
	Median, Min, Max float64
	// Q1 and Q3 are set when there are at least two samples.
	Q1, Q3 float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: s[0], Max: s[len(s)-1], Median: medianSorted(s)}
	if len(s) >= 2 {
		out.Q1, out.Q3 = quartilesSorted(s)
	}
	return out
}

func median(xs []float64) float64 { return summarize(xs).Median }

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartilesSorted returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), because
// that is the rule the acceptance check of this benchmark is stated in.
func quartilesSorted(s []float64) (q1, q3 float64) {
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise a bound has to be read against. 0 when there are
// too few samples to have quartiles.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
