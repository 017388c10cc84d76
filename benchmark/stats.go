package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of v (which it sorts): the
// smallest value with at least q of the samples at or below it. On fewer
// than 1/(1-q) samples it is the maximum.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	rank := int(math.Ceil(q * float64(len(v))))
	return v[min(max(rank, 1), len(v))-1]
}

func median(v []float64) float64 {
	return quantile(append([]float64(nil), v...), 0.5)
}

// best picks the round to report for a host metric: interference on a
// shared box only ever slows a round, so the fastest one is the closest
// to what the code costs. spreadPct says how far the median round was.
func best(v []float64, better string) (b, spreadPct float64) {
	if len(v) == 0 {
		return 0, 0
	}
	b = v[0]
	for _, x := range v[1:] {
		if (better == "higher") == (x > b) {
			b = x
		}
	}
	if b != 0 {
		spreadPct = math.Abs(median(v)-b) / math.Abs(b) * 100
	}
	return b, spreadPct
}

// overheadPct is the geometric mean of guarded[i]/native[i], minus one, in
// percent — the paper's way of averaging overheads.
func overheadPct(guarded, native []float64) float64 {
	if len(guarded) == 0 {
		return 0
	}
	logSum := 0.0
	for i := range guarded {
		logSum += math.Log(guarded[i] / native[i])
	}
	return (math.Exp(logSum/float64(len(guarded))) - 1) * 100
}
