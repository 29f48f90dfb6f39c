// Package stats provides lightweight metric primitives used across the DIDO
// reproduction: monotonic counters, gauges, fixed-bucket histograms and
// small numeric helpers.
//
// All types are safe for concurrent use unless documented otherwise. The
// package deliberately avoids any external dependency so that it can be used
// from both the real (wall-clock) store path and the simulated path.
package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() uint64 { return c.v.Swap(0) }

// Gauge is a settable 64-bit value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FloatGauge is a settable float64 value, stored atomically.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// MeanAccumulator accumulates a running sum/count pair. It is not safe for
// concurrent use; each pipeline stage owns its own accumulator.
type MeanAccumulator struct {
	Sum   float64
	Count uint64
}

// Observe adds one sample.
func (m *MeanAccumulator) Observe(v float64) {
	m.Sum += v
	m.Count++
}

// Mean returns the mean of all observed samples, or 0 if none.
func (m *MeanAccumulator) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Reset clears the accumulator.
func (m *MeanAccumulator) Reset() {
	m.Sum = 0
	m.Count = 0
}

// String implements fmt.Stringer.
func (m *MeanAccumulator) String() string {
	return fmt.Sprintf("mean=%.4g n=%d", m.Mean(), m.Count)
}
