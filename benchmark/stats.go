package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles the report may quote as "all but one in
// k", lowest first: 50, 90, 99, 99.9, 99.99, 99.999.
var tailLadder = []int{2, 10, 100, 1000, 10000, 100000}

// minBeyond is how many samples must lie beyond a quoted percentile: with
// fewer the figure is one or two outliers, not a property of the run.
const minBeyond = 10

// topPercentile returns the highest ladder percentile (as a fraction) with at
// least minBeyond of the n samples beyond it, or 0 when even the median has
// not.
func topPercentile(n int) float64 {
	best := 0.0
	for _, k := range tailLadder {
		if n/k >= minBeyond {
			best = 1 - 1/float64(k)
		}
	}
	return best
}

// quartileSpread is the run-to-run spread the acceptance rule uses: the
// distance between the first and third quartile as a share of the median,
// with quartiles placed as Python's statistics.quantiles(n=4) places them
// (exclusive method). Fewer than two values have no spread.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vals)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

// openSchedule is the absolute send schedule of an open loop: frame i is due
// at i×period after the start, whatever happened to the frames before it.
type openSchedule struct {
	period time.Duration
}

func newOpenSchedule(framesPerSec float64) openSchedule {
	return openSchedule{period: time.Duration(float64(time.Second) / framesPerSec)}
}

// due returns when frame i is due, as an offset from the schedule start.
func (s openSchedule) due(i int64) time.Duration { return time.Duration(i) * s.period }

// lateness is how far behind its due time a frame actually left; a frame that
// leaves early (it cannot, the sender sleeps until due) counts as on time.
func lateness(due, sent time.Duration) time.Duration {
	if sent < due {
		return 0
	}
	return sent - due
}
