package main

import (
	"sort"

	"pvmigrate/internal/metrics"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples, a p90 100.
const minBeyond = 10

// percentileOK reports whether n samples support the p-th percentile.
func percentileOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// tailPercentile is the highest of the candidate percentiles that n
// samples support, or 50 when none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if percentileOK(n, p) {
			return p
		}
	}
	return 50
}

// percentile is the p-th percentile of xs, interpolated between closest
// ranks (metrics.Series' convention).
func percentile(xs []float64, p float64) float64 {
	var s metrics.Series
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(p)
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	var s metrics.Series
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}

// sortedKeys returns a map's keys in order, for stable report output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
