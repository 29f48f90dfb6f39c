package stats

import "time"

// Throughput converts an operation count and elapsed simulated/real duration
// into operations per second. It returns 0 for non-positive durations.
func Throughput(ops uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// MOPS converts an operation count and duration to millions of ops per second,
// the unit used throughout the DIDO paper's evaluation.
func MOPS(ops uint64, elapsed time.Duration) float64 {
	return Throughput(ops, elapsed) / 1e6
}
