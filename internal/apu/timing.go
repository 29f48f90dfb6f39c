package apu

import (
	"math"
	"time"
)

// Work describes the per-query resource demands of one task executed over a
// batch. The fields mirror the paper's cost-model notation (Table I): I^XPU_F
// instructions, N^M_F random memory accesses, N^C_F cache accesses — plus
// SeqBytes, which the simulator uses to model hardware prefetching of
// sequential streams (the RD/WR separation effect in §III-A).
type Work struct {
	// N is the number of queries in the batch.
	N int
	// InstrPerQuery is the instruction count per query on this device.
	InstrPerQuery float64
	// MemAccessesPerQuery is the number of random (cache-missing) memory
	// accesses per query.
	MemAccessesPerQuery float64
	// CacheAccessesPerQuery is the number of accesses served by the L2 cache
	// per query.
	CacheAccessesPerQuery float64
	// SeqBytesPerQuery is the number of bytes streamed sequentially per query
	// (prefetchable on CPUs, coalesced on GPUs).
	SeqBytesPerQuery float64
	// GPUSerialFrac is the fraction of the task's memory work that
	// serializes across the whole GPU (atomic compare-exchange contention
	// and wavefront divergence on update paths). Zero for uniform,
	// conflict-free kernels. It is what makes small Insert/Delete kernels
	// consume a disproportionate share of GPU time (paper Fig 6).
	GPUSerialFrac float64
	// Parallelism is the number of cores (CPU) or compute units (GPU)
	// assigned to the task. Zero means "all of the device".
	Parallelism int
}

// bytesTouched returns the total bytes this work moves through the memory
// system, used for bandwidth accounting.
func (w Work) bytesTouched(lineBytes int) float64 {
	perQuery := (w.MemAccessesPerQuery)*float64(lineBytes) + w.SeqBytesPerQuery
	return perQuery * float64(w.N)
}

// Model is the ground-truth timing engine for one coupled platform. It is
// deliberately richer than the planner's closed-form cost model: it includes
// GPU kernel-launch overhead, wavefront occupancy, bandwidth capping,
// prefetching, and deterministic noise, so the planner's predictions carry a
// realistic error (paper Fig 9).
//
// Model is not safe for concurrent use; the simulated runner
// (dido.Runner) is single-threaded.
type Model struct {
	Platform Platform
	// Noise is the relative amplitude of multiplicative timing noise
	// (e.g. 0.03 for ±3%). Zero disables noise.
	Noise float64

	rng rng
}

// NewModel returns a timing model over p with noise amplitude noise, seeded
// deterministically by seed.
func NewModel(p Platform, noise float64, seed uint64) *Model {
	return &Model{Platform: p, Noise: noise, rng: newRNG(seed)}
}

// device returns the spec for kind.
func (m *Model) device(kind Kind) *DeviceSpec {
	if kind == CPU {
		return &m.Platform.CPU
	}
	return &m.Platform.GPU
}

// TaskTime returns the time for work w on device kind, given the concurrent
// memory-bandwidth demand of the *other* device in bytes/sec (0 when the
// other device is idle). The returned duration includes interference slowdown
// and noise.
func (m *Model) TaskTime(kind Kind, w Work, otherBW float64) time.Duration {
	base := m.baseTime(kind, w)
	if base <= 0 {
		return 0
	}
	myBW := w.bytesTouched(m.device(kind).CacheLineBytes) / base.Seconds()
	mu := m.Mu(kind, myBW, otherBW)
	d := time.Duration(float64(base) * mu)
	if m.Noise > 0 {
		d = time.Duration(float64(d) * (1 + m.Noise*(2*m.rng.float64()-1)))
	}
	return d
}

// BandwidthDemand returns the memory bandwidth (bytes/sec) work w generates
// on device kind when executed in isolation. The pipeline simulator feeds
// each stage's demand to the other stages' TaskTime as otherBW.
func (m *Model) BandwidthDemand(kind Kind, w Work) float64 {
	base := m.baseTime(kind, w)
	if base <= 0 {
		return 0
	}
	return w.bytesTouched(m.device(kind).CacheLineBytes) / base.Seconds()
}

// BytesTouched returns the total bytes work w moves through the shared
// memory system on device kind (random accesses at line granularity plus
// sequential streams), used for bandwidth and interference accounting.
func (m *Model) BytesTouched(kind Kind, w Work) float64 {
	return w.bytesTouched(m.device(kind).CacheLineBytes)
}

// baseTime is the isolated (no-interference, no-noise) execution time.
func (m *Model) baseTime(kind Kind, w Work) time.Duration {
	if w.N <= 0 {
		return 0
	}
	if kind == CPU {
		return m.cpuTime(w)
	}
	return m.gpuTime(w)
}

func (m *Model) cpuTime(w Work) time.Duration {
	d := &m.Platform.CPU
	cores := w.Parallelism
	if cores <= 0 || cores > d.Cores {
		cores = d.Cores
	}
	cycle := d.CycleTime().Seconds()
	instr := w.InstrPerQuery / d.IPC * cycle
	random := w.MemAccessesPerQuery * d.MemLatency.Seconds()
	cache := w.CacheAccessesPerQuery * d.CacheLatency.Seconds()
	// Sequential bytes: prefetcher serves PrefetchHitRate of the lines at
	// cache latency, the rest at memory latency, floored by raw bandwidth.
	lines := w.SeqBytesPerQuery / float64(d.CacheLineBytes)
	seqLat := lines * (d.PrefetchHitRate*d.CacheLatency.Seconds() +
		(1-d.PrefetchHitRate)*d.MemLatency.Seconds())
	seqBW := w.SeqBytesPerQuery / m.Platform.Memory.BandwidthBytesPerSec
	seq := math.Max(seqLat, seqBW)

	perQuery := instr + random + cache + seq
	total := perQuery * float64(w.N) / float64(cores)
	return time.Duration(total * float64(time.Second))
}

func (m *Model) gpuTime(w Work) time.Duration {
	d := &m.Platform.GPU
	cus := w.Parallelism
	if cus <= 0 || cus > d.Cores {
		cus = d.Cores
	}
	width := d.LanesPerCore
	waves := (w.N + width - 1) / width
	wavesPerCU := (waves + cus - 1) / cus
	resident := wavesPerCU
	if resident > d.MaxWavesInFlight {
		resident = d.MaxWavesInFlight
	}
	if resident < 1 {
		resident = 1
	}
	cycle := d.CycleTime().Seconds()
	// Per wave, lanes run in lockstep: one "query's worth" of instructions
	// per lane, memory accesses overlapping across resident waves.
	instr := w.InstrPerQuery / d.IPC * cycle
	random := w.MemAccessesPerQuery * d.MemLatency.Seconds() / float64(resident)
	cache := w.CacheAccessesPerQuery * d.CacheLatency.Seconds()
	// Sequential bytes: each lane streams its own object, so the accesses
	// are scattered at line granularity across the wave — no coalescing
	// bonus, only wave-level latency overlap.
	lines := w.SeqBytesPerQuery / float64(d.CacheLineBytes)
	seq := lines * d.MemLatency.Seconds() / float64(resident)
	perWave := instr + random + cache + seq
	compute := perWave * float64(wavesPerCU)
	// Bandwidth floors across the whole batch: streaming bytes against peak
	// bandwidth, and random accesses against the DRAM's random line rate —
	// the GPU's latency hiding cannot exceed what the memory system serves.
	bw := w.bytesTouched(d.CacheLineBytes) / m.Platform.Memory.BandwidthBytesPerSec
	total := math.Max(compute, bw)
	if rps := m.Platform.Memory.GPURandomAccessesPerSec; rps > 0 {
		randFloor := w.MemAccessesPerQuery * float64(w.N) / rps
		total = math.Max(total, randFloor)
	}
	// CAS/divergence serialization (update kernels): a fraction of the
	// memory work runs at single-stream latency regardless of occupancy.
	if w.GPUSerialFrac > 0 {
		total += w.GPUSerialFrac * w.MemAccessesPerQuery * float64(w.N) * d.MemLatency.Seconds()
	}
	total += d.KernelLaunch.Seconds()
	return time.Duration(total * float64(time.Second))
}

// Mu returns the interference slowdown factor µ for device kind generating
// myBW bytes/sec while the other device generates otherBW bytes/sec. µ ≥ 1.
//
// Two mechanisms: (1) queueing pressure — any concurrent traffic from the
// other device inflates this device's effective memory latency, with GPUs
// hurting CPUs far more than the reverse (Kayiran et al., MICRO-47, cited as
// [14] by the paper); (2) saturation — when combined demand exceeds peak
// bandwidth, both devices slow proportionally.
func (m *Model) Mu(kind Kind, myBW, otherBW float64) float64 {
	peak := m.Platform.Memory.BandwidthBytesPerSec
	if peak <= 0 {
		return 1
	}
	var alpha float64
	switch kind {
	case CPU:
		alpha = 0.9 // GPU traffic hits CPU latency hard
	default:
		alpha = 0.35 // CPU traffic hits GPU mildly (latency already hidden)
	}
	mu := 1 + alpha*otherBW/peak
	if total := myBW + otherBW; total > peak {
		mu *= total / peak
	}
	return mu
}

// GPUEfficiency returns the fraction of peak GPU throughput achieved at batch
// size n, relative to an infinitely large batch with the same per-query work.
// It is the quantity behind Fig 6: small batches strand lanes and pay the
// kernel launch without amortization.
func (m *Model) GPUEfficiency(w Work) float64 {
	if w.N <= 0 {
		return 0
	}
	small := m.gpuTime(w)
	big := w
	const refN = 1 << 16
	big.N = refN
	ref := m.gpuTime(big)
	perOpSmall := small.Seconds() / float64(w.N)
	perOpBig := ref.Seconds() / float64(refN)
	if perOpSmall <= 0 {
		return 1
	}
	e := perOpBig / perOpSmall
	if e > 1 {
		e = 1
	}
	return e
}
