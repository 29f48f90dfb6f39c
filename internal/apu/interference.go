package apu

import (
	"fmt"
	"time"
)

// InterferenceTable is the tabulated µ factor produced by the calibration
// microbenchmark, indexed by (CPU bandwidth demand, GPU bandwidth demand)
// buckets. The paper measures µ^XPU_{NC,NG} by generating N_C memory accesses
// on the CPU and N_G on the GPU and timing both (§IV-A); we do the equivalent
// against the ground-truth Model. DIDO's planner looks µ up here (with
// bilinear interpolation) instead of calling the Model directly, preserving
// the measured-table indirection of the real system.
type InterferenceTable struct {
	// Demands are the bandwidth bucket edges in bytes/sec, ascending,
	// shared by both axes.
	Demands []float64
	// CPUMu[i][j] is µ for the CPU when the CPU demands Demands[i] and the
	// GPU demands Demands[j]. GPUMu is indexed the same way (CPU first).
	CPUMu [][]float64
	GPUMu [][]float64
}

// CalibrateInterference runs the µ microbenchmark against model: for every
// pair of demand levels it asks the model for the slowdown each device
// experiences. levels chooses the grid resolution.
func CalibrateInterference(model *Model, levels int) *InterferenceTable {
	if levels < 2 {
		levels = 2
	}
	peak := model.Platform.Memory.BandwidthBytesPerSec
	t := &InterferenceTable{
		Demands: make([]float64, levels),
		CPUMu:   make([][]float64, levels),
		GPUMu:   make([][]float64, levels),
	}
	for i := 0; i < levels; i++ {
		// Grid from 0 to 1.2× peak so saturation is represented.
		t.Demands[i] = 1.2 * peak * float64(i) / float64(levels-1)
	}
	for i := 0; i < levels; i++ {
		t.CPUMu[i] = make([]float64, levels)
		t.GPUMu[i] = make([]float64, levels)
		for j := 0; j < levels; j++ {
			cpuBW, gpuBW := t.Demands[i], t.Demands[j]
			t.CPUMu[i][j] = model.Mu(CPU, cpuBW, gpuBW)
			t.GPUMu[i][j] = model.Mu(GPU, gpuBW, cpuBW)
		}
	}
	return t
}

// Lookup returns the interpolated µ for device kind when the CPU demands
// cpuBW and the GPU demands gpuBW (bytes/sec). Demands beyond the grid are
// clamped to the outermost bucket.
func (t *InterferenceTable) Lookup(kind Kind, cpuBW, gpuBW float64) float64 {
	var grid [][]float64
	if kind == CPU {
		grid = t.CPUMu
	} else {
		grid = t.GPUMu
	}
	i, fi := t.locate(cpuBW)
	j, fj := t.locate(gpuBW)
	v00 := grid[i][j]
	v01 := grid[i][min(j+1, len(t.Demands)-1)]
	v10 := grid[min(i+1, len(t.Demands)-1)][j]
	v11 := grid[min(i+1, len(t.Demands)-1)][min(j+1, len(t.Demands)-1)]
	return v00*(1-fi)*(1-fj) + v10*fi*(1-fj) + v01*(1-fi)*fj + v11*fi*fj
}

// locate returns the lower bucket index and the fractional position of demand
// within [Demands[i], Demands[i+1]].
func (t *InterferenceTable) locate(demand float64) (int, float64) {
	n := len(t.Demands)
	if demand <= t.Demands[0] {
		return 0, 0
	}
	if demand >= t.Demands[n-1] {
		return n - 1, 0
	}
	for i := 0; i < n-1; i++ {
		if demand < t.Demands[i+1] {
			span := t.Demands[i+1] - t.Demands[i]
			return i, (demand - t.Demands[i]) / span
		}
	}
	return n - 1, 0
}

// String summarizes the table dimensions.
func (t *InterferenceTable) String() string {
	return fmt.Sprintf("InterferenceTable(%d levels, peak-relative 0..1.2)", len(t.Demands))
}

// AtomicDisruptionNanos is the CPU memory-path stall caused by one GPU
// platform atomic (the hUMA coherence transaction each compare-exchange
// triggers). GPU-resident Insert/Delete kernels therefore poison co-running
// CPU stages out of proportion to their bandwidth — the effect behind the
// paper's flexible index-operation assignment (§V-D1).
const AtomicDisruptionNanos = 150.0

// AtomicDisruption converts the GPU platform atomics a batch issues within
// its bottleneck time tmax into the additive µ term for CPU stages, capped to
// keep the interference fixed point stable. The simulator's executor and the
// planner add the same term.
func AtomicDisruption(atomics float64, tmax time.Duration) float64 {
	if atomics <= 0 || tmax <= 0 {
		return 0
	}
	rate := atomics / tmax.Seconds()
	// The GPU's own CAS serialization (~320ns per atomic) bounds how fast it
	// can issue platform atomics, which in turn bounds the damage to the CPU.
	const maxAtomicRate = 3.1e6
	if rate > maxAtomicRate {
		rate = maxAtomicRate
	}
	return rate * AtomicDisruptionNanos * 1e-9
}
