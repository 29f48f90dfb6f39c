package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Histogram is a fixed-boundary histogram. Boundaries are upper bounds of the
// buckets; a final implicit +Inf bucket catches the rest. It is safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
	min    float64
	max    float64
}

// NewHistogram returns a histogram with the given ascending upper bounds.
// NewHistogram panics if bounds are not strictly ascending.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// LatencyBoundsMicros returns a sensible default bucket layout for
// microsecond-scale latencies (1 µs .. ~4 s, roughly ×2 per bucket).
func LatencyBoundsMicros() []float64 {
	var b []float64
	for v := 1.0; v <= 4_194_304; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the mean of all samples, or 0 if none.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observed sample, or 0 if none.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample, or 0 if none.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) using linear
// interpolation inside the owning bucket. The estimate is exact at bucket
// boundaries and within one bucket width otherwise.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// Quantiles estimates several quantiles under one lock, so all values
// describe the same sample set even while other goroutines keep observing.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, q := range qs {
		out[i] = h.quantileLocked(q)
	}
	return out
}

func (h *Histogram) quantileLocked(q float64) float64 {
	return quantileFrom(h.bounds, h.counts, h.n, h.min, h.max, q)
}

// quantileFrom estimates the q-quantile from raw bucket state; shared by the
// live histogram (under its lock) and exported snapshots (lock-free).
func quantileFrom(bounds []float64, counts []uint64, n uint64, min, max, q float64) float64 {
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	target := q * float64(n)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) {
			hi = bounds[i]
		}
		if hi < lo { // +Inf bucket with max below previous bound (cannot happen, but be safe)
			hi = lo
		}
		if c == 0 {
			return lo
		}
		frac := (target - prev) / float64(c)
		return lo + frac*(hi-lo)
	}
	return max
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum = 0
	h.n = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Snapshot returns a copy of bucket counts (including the +Inf bucket).
func (h *Histogram) Snapshot() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// HistogramSnapshot is a consistent copy of a histogram's full state, taken
// under one lock acquisition so bounds, counts, sum and count all describe
// the same sample set. It is the exposition surface: quantiles computed from
// a snapshot agree with the bucket counts exported next to them.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1 entries,
	// the last being the +Inf bucket.
	Bounds []float64
	Counts []uint64
	Sum    float64
	N      uint64
	Min    float64 // +Inf when N == 0
	Max    float64 // -Inf when N == 0
}

// Export returns a consistent snapshot of the histogram.
func (h *Histogram) Export() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: make([]float64, len(h.bounds)),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum,
		N:      h.n,
		Min:    h.min,
		Max:    h.max,
	}
	copy(s.Bounds, h.bounds)
	copy(s.Counts, h.counts)
	return s
}

// Quantile estimates the q-quantile from the snapshot, with the same
// interpolation (and the same answers) as Histogram.Quantile at the moment
// the snapshot was taken.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return quantileFrom(s.Bounds, s.Counts, s.N, s.Min, s.Max, q)
}

// String renders a compact summary.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	return sb.String()
}
