package pipeline

import "time"

// BatchSizer is the multiplicative-feedback batch-size controller behind
// every ConfigProvider (StaticProvider — Mega-KV's periodic scheduling — the
// simulated system's adaptation loop and the live controller): the batch
// grows until the bottleneck stage fills the scheduling interval
// (Tmax ≈ Interval), with the per-step growth ratio dampened to avoid
// oscillation and the result clamped to [Min, Max].
//
// BatchSizer is not safe for concurrent use; callers serialize it (the live
// runner consults its provider under a mutex).
type BatchSizer struct {
	// Interval is the target for the bottleneck stage time Tmax.
	Interval time.Duration
	// Min and Max clamp the size (0 disables the respective bound). A zero
	// Min leaves the initial size at DefaultInitialBatch.
	Min, Max int

	cur int
}

// DefaultInitialBatch seeds the controller when Min is unset.
const DefaultInitialBatch = 1024

// Current returns the size the controller currently recommends, initializing
// it on first use.
func (z *BatchSizer) Current() int {
	if z.cur == 0 {
		z.cur = z.Min
		if z.cur == 0 {
			z.cur = DefaultInitialBatch
		}
		z.cur = z.clamp(z.cur)
	}
	return z.cur
}

// Set overrides the current size (a planner solved for one); it is clamped.
func (z *BatchSizer) Set(n int) {
	if n <= 0 {
		return
	}
	z.cur = z.clamp(n)
}

// Observe feeds back the previously executed batch and returns the next
// size: the current size scaled by Interval/Tmax, dampened to [0.5, 2] per
// step so one noisy batch cannot swing the size wildly.
func (z *BatchSizer) Observe(prev *Batch) int {
	cur := z.Current()
	if prev != nil && prev.Times.Tmax > 0 && z.Interval > 0 {
		ratio := float64(z.Interval) / float64(prev.Times.Tmax)
		if ratio > 2 {
			ratio = 2
		}
		if ratio < 0.5 {
			ratio = 0.5
		}
		cur = z.clamp(int(float64(cur) * ratio))
		z.cur = cur
	}
	return cur
}

func (z *BatchSizer) clamp(n int) int {
	if z.Min > 0 && n < z.Min {
		n = z.Min
	}
	if z.Max > 0 && n > z.Max {
		n = z.Max
	}
	return n
}

// StaticProvider always returns the same config and uses a BatchSizer
// targeting the scheduling interval (the periodic scheduling of Mega-KV: the
// batch grows until the bottleneck stage fills the interval). It is the live
// runner's provider when none is given (a server without -adapt).
type StaticProvider struct {
	Config   Config
	Interval time.Duration
	// MinBatch/MaxBatch clamp the controller.
	MinBatch, MaxBatch int

	sizer *BatchSizer
}

// NextConfig implements ConfigProvider, delegating sizing to the shared
// BatchSizer (multiplicative feedback toward the interval).
func (p *StaticProvider) NextConfig(prev *Batch) (Config, int) {
	if p.sizer == nil {
		p.sizer = &BatchSizer{Interval: p.Interval, Min: p.MinBatch, Max: p.MaxBatch}
	}
	return p.Config, p.sizer.Observe(prev)
}

// WantsProfile reports that the static provider only reads batch timings
// (for the sizer), never the measured workload profile.
func (p *StaticProvider) WantsProfile() bool { return false }
