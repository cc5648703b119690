package fleet

import "repro/internal/cloudsim/metrics"

// percentile reads the nearest-rank p-th percentile from an ascending
// slice, or the zero value from an empty one. p is in percent and may
// be fractional. The rank formula is metrics.NearestRank, shared with
// metrics.Percentile, because a second, truncating copy of it is how
// an off-by-one at p99.9 once crept in. Run sorts each distribution
// once, after the barrier, so a report's three or more percentiles are
// indexed reads.
func percentile[T any](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[metrics.NearestRank(len(sorted), p)]
}
