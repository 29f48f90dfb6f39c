// Package profiler implements DIDO's workload profiler (paper §III-A): a few
// per-batch counters (GET/SET ratio, average key and value size), an online
// Zipf-skewness estimator fed by the store's per-object access counters
// (§IV-B), and the adaptation trigger — re-planning happens only when a
// workload counter moves more than 10% against the profile the current plan
// was built from.
package profiler

import (
	"math"

	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/zipf"
)

// ChangeThreshold is the paper's upper limit for counter alteration before a
// re-plan is triggered ("In our implementation, the upper limit ... is set to
// 10%").
const ChangeThreshold = 0.10

// Profiler accumulates per-batch workload characteristics and decides when
// the pipeline should be re-planned.
type Profiler struct {
	store *store.Store
	// SampleBatches is how many observations pass between skewness samplings.
	SampleBatches int
	// SkewWeight is the weight a new skewness sample gets against the
	// running estimate (New: 0.5).
	SkewWeight float64

	// base is the profile the current plan was derived from.
	base    task.Profile
	hasBase bool

	batchesSinceSample int
	skew               float64
}

// New returns a profiler over s.
func New(s *store.Store) *Profiler {
	return &Profiler{store: s, SampleBatches: 8, SkewWeight: 0.5}
}

// Skew returns the latest skewness estimate.
func (p *Profiler) Skew() float64 { return p.skew }

// Observe ingests the measured profile of an executed batch, returning the
// profile enriched with the skewness estimate and whether the workload has
// changed enough (>10% on any tracked counter) to warrant re-planning.
func (p *Profiler) Observe(measured task.Profile) (task.Profile, bool) {
	p.batchesSinceSample++
	if p.batchesSinceSample >= p.SampleBatches {
		p.batchesSinceSample = 0
		p.sampleSkew()
	}
	measured.Skew = p.skew

	if !p.hasBase {
		p.base = measured
		p.hasBase = true
		return measured, true
	}
	if p.changed(measured) {
		p.base = measured
		return measured, true
	}
	return measured, false
}

// changed applies the 10% rule to the tracked counters.
func (p *Profiler) changed(m task.Profile) bool {
	return relChange(p.base.GetRatio, m.GetRatio) > ChangeThreshold ||
		relChange(p.base.KeySize, m.KeySize) > ChangeThreshold ||
		relChange(p.base.ValueSize, m.ValueSize) > ChangeThreshold ||
		relChange(p.base.EvictionRate, m.EvictionRate) > ChangeThreshold ||
		math.Abs(p.base.Skew-m.Skew) > ChangeThreshold
}

// relChange returns |a-b| relative to max(|a|, |b|, ε).
func relChange(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-9 {
		return 0
	}
	return math.Abs(a-b) / den
}

// sampleSkew advances the store's sampling interval and re-estimates the
// Zipf exponent from the collected access frequencies (§IV-B: counter +
// timestamp per object, frequencies of the previous interval).
func (p *Profiler) sampleSkew() {
	const maxSamples = 4096
	counts := p.store.AdvanceSampleInterval(maxSamples)
	if len(counts) < 16 {
		return // not enough signal; keep the previous estimate
	}
	freqs := make([]float64, len(counts))
	for i, c := range counts {
		freqs[i] = float64(c)
	}
	live := uint64(p.store.Len())
	if live < 16 {
		return
	}
	est := zipf.EstimateZipfS(freqs, live)
	// Smooth: workloads shift abruptly but estimates are noisy.
	if p.skew == 0 {
		p.skew = est
	} else {
		p.skew = (1-p.SkewWeight)*p.skew + p.SkewWeight*est
	}
	// Snap near-YCSB estimates to suppress drift in steady state.
	if math.Abs(p.skew) < 0.05 {
		p.skew = 0
	}
}

// Reset forgets the baseline so the next Observe always triggers re-planning
// (used after explicit reconfiguration).
func (p *Profiler) Reset() {
	p.hasBase = false
}
