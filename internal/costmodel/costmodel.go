// Package costmodel implements DIDO's APU-aware cost model (paper §IV): the
// closed-form equations that estimate per-stage execution time for any
// pipeline configuration, and the exhaustive configuration search that picks
// the throughput-optimal plan.
//
// Equations (Table I notation):
//
//	Eq 1:  T^XPU_F  = N × (I^XPU_F / IPC^XPU + N^M_F·L^XPU_M + N^C_F·L^XPU_C)
//	Eq 2:  T^XPU_A  = Σ_F T^XPU_F × µ^XPU_{NC,NG}
//	Eq 3:  T^WS_A   = T^CPU_B + T^CPU_A (T^GPU_A − T^CPU_B) / (T^CPU_A + T^GPU_A)
//	Eq 4:  S = N / Tmax, with N chosen so Tmax ≤ I (periodic scheduling)
//
// This is the *planner*, deliberately simpler than the ground-truth simulator
// in internal/apu + internal/dido: it prices sequential streams at cache
// latency (perfect prefetch), ignores bandwidth saturation floors, computes
// the key-popularity cache-hit portion P analytically from Zipf's law instead
// of simulating an LRU, and reads µ from the calibrated interference table.
// Those simplifications are why its predictions carry a Fig 9-style error
// against the simulator.
package costmodel

import (
	"math"
	"time"

	"repro/internal/apu"
	"repro/internal/pipeline"
	"repro/internal/task"
	"repro/internal/zipf"
)

// Planner evaluates configurations for a platform.
type Planner struct {
	Platform apu.Platform
	// Mu is the calibrated interference table (§IV-A microbenchmark).
	Mu *apu.InterferenceTable
	// Interval is the periodic-scheduling bound I on per-stage time.
	Interval time.Duration
	// MinBatch/MaxBatch clamp the solved batch size.
	MinBatch, MaxBatch int
	// INSearchMLP, when > 1, models the wide batched IN(Search) executor: the
	// wave-structured SearchBatch keeps several independent bucket-line misses
	// in flight per core, so the task's random-access latency divides by an
	// effective memory-level-parallelism factor that ramps from 1 at the wide
	// path's engagement threshold up to INSearchMLP at large batches. Zero (or
	// ≤ 1) leaves the scalar single-miss-at-a-time pricing — the default, so
	// planners for the simulator's scalar executor are unchanged. The live
	// server sets DefaultINSearchMLP when the wide path is enabled.
	INSearchMLP float64
	// RVReaders, when ≥ 1, models the live ingestion tier: RV and PP run on
	// the front end's reader goroutines rather than on their stage's
	// worker group, so their time divides by the reader count (capped by
	// physical cores) regardless of the stage's core assignment. The live
	// server has one reader per front end and sets 1. 0 (the default)
	// keeps stage-group pricing, which is what the simulator's executor
	// actually does with RV/PP.
	RVReaders int

	// phpCache memoizes CacheHitPortion per workload shape: the Zipf
	// harmonic sums are the single most expensive part of evaluating the
	// whole configuration space, and every task of every config shares them.
	phpCache map[phpKey]float64
}

type phpKey struct {
	pop            uint64
	keySz, valSz   float64
	skew, cacheKiB float64
}

// DefaultINSearchMLP is the effective memory-level parallelism the wide
// batched search reaches at large batches: out-of-order cores sustain a
// handful of independent cache misses in flight (~4 across common cores once
// address-generation and load-buffer limits are paid), which is also about
// the speedup the batched-probe hash-join literature reports for
// software-pipelined probes.
const DefaultINSearchMLP = 4

// inSearchMemDiv returns the divisor applied to a CPU task's random-access
// latency term: >1 only for IN(Search) when the batched executor is modeled
// (INSearchMLP set) and the batch is wide enough to engage it. The ramp is
// logarithmic in batch size — each doubling past the engagement threshold
// buys a deeper steady-state miss pipeline — reaching full INSearchMLP four
// octaves in (n ≥ 16× the threshold, i.e. 512 at the default).
func (pl *Planner) inSearchMemDiv(id task.ID, n int) float64 {
	m := pl.INSearchMLP
	if m <= 1 || id != task.INSearch || n < pipeline.DefaultWideMinGets {
		return 1
	}
	ramp := math.Log2(float64(n)/float64(pipeline.DefaultWideMinGets)) / 4
	if ramp > 1 {
		ramp = 1
	}
	return 1 + (m-1)*ramp
}

// NewPlanner returns a planner with the µ table calibrated against a
// noise-free model of p.
func NewPlanner(p apu.Platform, interval time.Duration) *Planner {
	model := apu.NewModel(p, 0, 1)
	return &Planner{
		Platform: p,
		Mu:       apu.CalibrateInterference(model, 16),
		Interval: interval,
		MinBatch: 64,
		MaxBatch: 1 << 17,
	}
}

// Prediction is the cost model's estimate for one configuration.
type Prediction struct {
	Config pipeline.Config
	// Batch is the solved batch size N with Tmax ≤ I.
	Batch int
	// StageTimes are the predicted per-stage durations at Batch.
	StageTimes [3]time.Duration
	// Tmax is the predicted bottleneck time.
	Tmax time.Duration
	// ThroughputOPS is Eq 4's S = N / Tmax in queries/sec.
	ThroughputOPS float64
}

// CacheHitPortion computes P analytically (§IV-B "key popularity"): the
// cache holds the n' most popular objects; under Zipf's law the portion of
// accesses they absorb is Σ_{i≤n'} f_i / Σ_j f_j.
func (pl *Planner) CacheHitPortion(prof task.Profile) float64 {
	if prof.Skew <= 0 || prof.Population == 0 {
		return 0
	}
	objBytes := prof.KeySize + prof.ValueSize + 32
	if objBytes <= 0 {
		return 0
	}
	key := phpKey{
		pop: prof.Population, keySz: prof.KeySize, valSz: prof.ValueSize,
		skew: prof.Skew, cacheKiB: float64(pl.Platform.CPU.CacheBytes) / 1024,
	}
	if v, ok := pl.phpCache[key]; ok {
		return v
	}
	cached := uint64(float64(pl.Platform.CPU.CacheBytes) / objBytes)
	v := zipf.TopPortion(prof.Population, cached, prof.Skew)
	if pl.phpCache == nil {
		pl.phpCache = make(map[phpKey]float64)
	}
	pl.phpCache[key] = v
	return v
}

// taskTime prices one task by Eq 1 on the given device.
func (pl *Planner) taskTime(id task.ID, prof task.Profile, cfg pipeline.Config, n int) time.Duration {
	stage := cfg.StageOf(id)
	dev := stage.Device()
	place := cfg.Placement(id)
	if place.OnCPU {
		place.WithAffinityPartner = cfg.Placement(id).WithAffinityPartner
	}
	p := prof
	p.N = n
	p.CacheHitPortion = 0
	if place.OnCPU {
		p.CacheHitPortion = pl.CacheHitPortion(prof)
	}
	d := task.ForTask(id, p, place)
	if d.Queries == 0 {
		return 0
	}

	// RV, SD and LG are estimated from profiled unit costs (§IV-B) plus the
	// frame bytes they stream through the memory system. LG (the durability
	// tier's WAL append) joins this branch because its dominant cost —
	// write syscall plus the amortized share of a group-commit fsync — is
	// only knowable by measurement; the live pipeline times the commit at
	// each batch boundary and feeds LGUnitNanos back through the profile.
	if id == task.RV || id == task.SD || id == task.LG {
		spec := pl.Platform.CPU
		cores := cfg.CoresFor(stage, spec.Cores)
		if cores < 1 {
			cores = 1
		}
		if id == task.RV {
			cores = pl.readerCores(cores)
		}
		unit := p.RVUnitNanos
		switch id {
		case task.SD:
			unit = p.SDUnitNanos
		case task.LG:
			unit = p.LGUnitNanos
		}
		seqLine := spec.PrefetchHitRate*spec.CacheLatency.Seconds() +
			(1-spec.PrefetchHitRate)*spec.MemLatency.Seconds()
		per := unit*1e-9 + d.SeqBytes/float64(spec.CacheLineBytes)*seqLine
		return time.Duration(per * float64(d.Queries) / float64(cores) * float64(time.Second))
	}

	if dev == apu.CPU {
		spec := pl.Platform.CPU
		cores := cfg.CoresFor(stage, spec.Cores)
		if cores < 1 {
			cores = 1
		}
		if id == task.PP {
			// Parse runs on the ingestion readers, like RV.
			cores = pl.readerCores(cores)
		}
		// Sequential lines are served at the prefetcher's measured hit mix
		// (a calibrated constant, like the paper's microbenchmarked unit
		// costs).
		seqLine := spec.PrefetchHitRate*spec.CacheLatency.Seconds() +
			(1-spec.PrefetchHitRate)*spec.MemLatency.Seconds()
		per := d.Instr/spec.IPC*spec.CycleTime().Seconds() +
			d.MemAccesses*spec.MemLatency.Seconds()/pl.inSearchMemDiv(id, n) +
			d.CacheAccesses*spec.CacheLatency.Seconds() +
			d.SeqBytes/float64(spec.CacheLineBytes)*seqLine
		return time.Duration(per * float64(d.Queries) / float64(cores) * float64(time.Second))
	}

	spec := pl.Platform.GPU
	width := spec.LanesPerCore
	waves := (d.Queries + width - 1) / width
	wavesPerCU := (waves + spec.Cores - 1) / spec.Cores
	resident := wavesPerCU
	if resident > spec.MaxWavesInFlight {
		resident = spec.MaxWavesInFlight
	}
	if resident < 1 {
		resident = 1
	}
	randLat := spec.MemLatency.Seconds() / float64(resident)
	// The memory system's random line rate bounds effective access latency
	// across the GPU's whole lane population (shared with the simulator's
	// floor; it is linear in N so Eq 1's form is preserved).
	if rps := pl.Platform.Memory.GPURandomAccessesPerSec; rps > 0 {
		lanes := float64(cusOrCores(spec, wavesPerCU))
		if perAccess := lanes / rps; perAccess > randLat {
			randLat = perAccess
		}
	}
	perWave := d.Instr/spec.IPC*spec.CycleTime().Seconds() +
		d.MemAccesses*randLat +
		d.CacheAccesses*spec.CacheLatency.Seconds() +
		d.SeqBytes/float64(spec.CacheLineBytes)*spec.MemLatency.Seconds()/float64(resident)
	// CAS/divergence serialization of update kernels (Fig 6's mechanism).
	serial := d.GPUSerialFrac * d.MemAccesses * float64(d.Queries) * spec.MemLatency.Seconds()
	return time.Duration((float64(wavesPerCU)*perWave + serial + spec.KernelLaunch.Seconds()) * float64(time.Second))
}

// readerCores is the parallelism RV and PP actually run at: the ingestion
// reader count when RVReaders is set, capped by physical cores; otherwise
// the stage's core assignment, unchanged.
func (pl *Planner) readerCores(stageCores int) int {
	if pl.RVReaders < 1 {
		return stageCores
	}
	if pl.RVReaders > pl.Platform.CPU.Cores {
		return pl.Platform.CPU.Cores
	}
	return pl.RVReaders
}

// bytesTouched estimates the memory traffic of one task for bandwidth
// accounting.
func (pl *Planner) bytesTouched(id task.ID, prof task.Profile, cfg pipeline.Config, n int) float64 {
	p := prof
	p.N = n
	place := cfg.Placement(id)
	if place.OnCPU {
		p.CacheHitPortion = pl.CacheHitPortion(prof)
	}
	d := task.ForTask(id, p, place)
	line := float64(pl.Platform.CPU.CacheLineBytes)
	return (d.MemAccesses*line + d.SeqBytes) * float64(d.Queries)
}

// stageTimes prices all three stages at batch size n, applying Eq 2's µ via
// a busy-overlap-weighted fixed point: each device sees the other's
// instantaneous bandwidth (bytes over busy time) scaled by the overlap
// fraction, plus apu.AtomicDisruption's term for GPU atomics on the CPU side.
func (pl *Planner) stageTimes(cfg pipeline.Config, prof task.Profile, n int) [3]time.Duration {
	var base [3]time.Duration
	var bytes [3]float64
	var gpuAtomics float64
	for s := pipeline.StageCPUPre; s <= pipeline.StageCPUPost; s++ {
		for _, id := range cfg.Tasks(s) {
			base[s] += pl.taskTime(id, prof, cfg, n)
			bytes[s] += pl.bytesTouched(id, prof, cfg, n)
			if s == pipeline.StageGPU {
				p := prof
				p.N = n
				if d := task.ForTask(id, p, cfg.Placement(id)); d.GPUSerialFrac > 0 {
					gpuAtomics += d.MemAccesses * float64(d.Queries)
				}
			}
		}
	}
	out := base
	for iter := 0; iter < 2; iter++ {
		tmax := max(out[0], out[1], out[2])
		if tmax <= 0 {
			break
		}
		gpuBusy := out[pipeline.StageGPU]
		cpuBusy := out[pipeline.StageCPUPre] + out[pipeline.StageCPUPost]
		var gpuInstBW, cpuInstBW float64
		if gpuBusy > 0 {
			gpuInstBW = bytes[pipeline.StageGPU] / gpuBusy.Seconds()
		}
		if cpuBusy > 0 {
			cpuInstBW = (bytes[pipeline.StageCPUPre] + bytes[pipeline.StageCPUPost]) / cpuBusy.Seconds()
		}
		overlapOnCPU := min(max(float64(gpuBusy)/float64(tmax), 0), 1)
		overlapOnGPU := min(max(float64(cpuBusy)/float64(tmax), 0), 1)
		muCPU := 1 + (pl.Mu.Lookup(apu.CPU, cpuInstBW, gpuInstBW)-1)*overlapOnCPU
		muCPU += apu.AtomicDisruption(gpuAtomics, tmax)
		muGPU := 1 + (pl.Mu.Lookup(apu.GPU, cpuInstBW, gpuInstBW)-1)*overlapOnGPU
		out[pipeline.StageCPUPre] = time.Duration(float64(base[pipeline.StageCPUPre]) * muCPU)
		out[pipeline.StageCPUPost] = time.Duration(float64(base[pipeline.StageCPUPost]) * muCPU)
		out[pipeline.StageGPU] = time.Duration(float64(base[pipeline.StageGPU]) * muGPU)
	}
	if cfg.WorkStealing {
		pl.applyStealing(cfg, prof, n, &out)
	}
	return out
}

// applyStealing applies Eq 3 to the bottleneck stage. T^CPU_A (the
// bottleneck's stealable work priced on the helper) and T^CPU_B (the helper's
// own load) follow the paper's formulation; only stealable tasks move.
func (pl *Planner) applyStealing(cfg pipeline.Config, prof task.Profile, n int, out *[3]time.Duration) {
	if cfg.GPUDepth == 0 {
		return
	}
	bi := pipeline.StageCPUPre
	for s := pipeline.StageGPU; s <= pipeline.StageCPUPost; s++ {
		if out[s] > out[bi] {
			bi = s
		}
	}
	bDev := bi.Device()
	helperDev := apu.CPU
	if bDev == apu.CPU {
		helperDev = apu.GPU
	}
	var helperBusy time.Duration
	var helperStage pipeline.Stage
	found := false
	for s := pipeline.StageCPUPre; s <= pipeline.StageCPUPost; s++ {
		if s.Device() == helperDev && len(cfg.Tasks(s)) > 0 {
			helperBusy += out[s]
			if !found {
				helperStage = s
				found = true
			}
		}
	}
	if !found && helperDev == apu.GPU {
		return // no GPU presence to steal with
	}
	if helperBusy >= out[bi] {
		return
	}
	// Price the bottleneck's stealable work on both devices.
	var ownSteal, pinned, helperSteal time.Duration
	cfgOther := cfg // same placement flags; device pricing differs via taskTime's stage
	for _, id := range cfg.Tasks(bi) {
		tOwn := pl.taskTime(id, prof, cfg, n)
		if !stealable(id, helperDev) {
			pinned += tOwn
			continue
		}
		ownSteal += tOwn
		helperSteal += pl.taskTimeOnDevice(id, prof, cfgOther, n, helperDev)
	}
	if ownSteal <= 0 {
		return
	}
	// Eq 3 generalized: the stealable pool is divisible work the owner chews
	// from time `pinned` and the helper from time helperBusy; both finish at
	// the closed-form completion time t. (With pinned = 0 this reduces
	// exactly to the paper's T^WS_A = T^CPU_B + T^CPU_A(T^GPU_A − T^CPU_B) /
	// (T^CPU_A + T^GPU_A).)
	t := closeForm(pinned, ownSteal, helperBusy, helperSteal)
	if t < out[bi] {
		stolenShare := 0.0
		if helperSteal > 0 && t > helperBusy {
			stolenShare = float64(t-helperBusy) / float64(helperSteal)
		}
		out[bi] = t
		if found {
			out[helperStage] += time.Duration(stolenShare * float64(helperSteal))
		}
	}
}

// closeForm solves for the completion time t of a divisible stealable pool:
// the owner works on it from time `pinned` at rate 1/ownDur, the helper from
// time helperReady at rate 1/helperDur. Durations are the full-pool times.
func closeForm(pinned, ownDur, helperReady, helperDur time.Duration) time.Duration {
	if helperDur <= 0 {
		return pinned + ownDur
	}
	po, pr := float64(pinned), float64(helperReady)
	co, ch := float64(ownDur), float64(helperDur)
	// fraction done by owner by time t: (t-po)/co; by helper: (t-pr)/ch.
	// (t-po)/co + (t-pr)/ch = 1  →  t = (1 + po/co + pr/ch) / (1/co + 1/ch)
	t := (1 + po/co + pr/ch) / (1/co + 1/ch)
	// If the helper would start after the owner already finished, no steal.
	if t < pr {
		t = po + co
	}
	if t > po+co {
		t = po + co
	}
	return time.Duration(t)
}

// taskTimeOnDevice prices task id as if it ran on dev (for stealing).
func (pl *Planner) taskTimeOnDevice(id task.ID, prof task.Profile, cfg pipeline.Config, n int, dev apu.Kind) time.Duration {
	// Build a config where the task's stage maps to dev by flipping GPUDepth
	// boundaries is awkward; price directly instead.
	p := prof
	p.N = n
	place := cfg.Placement(id)
	place.OnCPU = dev == apu.CPU
	if place.OnCPU {
		p.CacheHitPortion = pl.CacheHitPortion(prof)
	} else {
		p.CacheHitPortion = 0
	}
	d := task.ForTask(id, p, place)
	if d.Queries == 0 {
		return 0
	}
	if dev == apu.CPU {
		spec := pl.Platform.CPU
		// Stealing CPUs use the less-loaded stage's cores; approximate with
		// half the cores.
		cores := spec.Cores / 2
		if cores < 1 {
			cores = 1
		}
		seqLine := spec.PrefetchHitRate*spec.CacheLatency.Seconds() +
			(1-spec.PrefetchHitRate)*spec.MemLatency.Seconds()
		per := d.Instr/spec.IPC*spec.CycleTime().Seconds() +
			d.MemAccesses*spec.MemLatency.Seconds()/pl.inSearchMemDiv(id, n) +
			d.CacheAccesses*spec.CacheLatency.Seconds() +
			d.SeqBytes/float64(spec.CacheLineBytes)*seqLine
		return time.Duration(per * float64(d.Queries) / float64(cores) * float64(time.Second))
	}
	spec := pl.Platform.GPU
	width := spec.LanesPerCore
	waves := (d.Queries + width - 1) / width
	wavesPerCU := (waves + spec.Cores - 1) / spec.Cores
	resident := min(wavesPerCU, spec.MaxWavesInFlight)
	if resident < 1 {
		resident = 1
	}
	randLat := spec.MemLatency.Seconds() / float64(resident)
	// The memory system's random line rate bounds effective access latency
	// across the GPU's whole lane population (shared with the simulator's
	// floor; it is linear in N so Eq 1's form is preserved).
	if rps := pl.Platform.Memory.GPURandomAccessesPerSec; rps > 0 {
		lanes := float64(cusOrCores(spec, wavesPerCU))
		if perAccess := lanes / rps; perAccess > randLat {
			randLat = perAccess
		}
	}
	perWave := d.Instr/spec.IPC*spec.CycleTime().Seconds() +
		d.MemAccesses*randLat +
		d.CacheAccesses*spec.CacheLatency.Seconds() +
		d.SeqBytes/float64(spec.CacheLineBytes)*spec.MemLatency.Seconds()/float64(resident)
	// CAS/divergence serialization of update kernels (Fig 6's mechanism).
	serial := d.GPUSerialFrac * d.MemAccesses * float64(d.Queries) * spec.MemLatency.Seconds()
	return time.Duration((float64(wavesPerCU)*perWave + serial + spec.KernelLaunch.Seconds()) * float64(time.Second))
}

// cusOrCores returns how many lanes concurrently issue per wave step: the
// wavefront width times the CUs that are actually occupied.
func cusOrCores(spec apu.DeviceSpec, wavesPerCU int) int {
	cus := spec.Cores
	if wavesPerCU == 0 {
		cus = 1
	}
	return cus * spec.LanesPerCore
}

func stealable(id task.ID, helperDev apu.Kind) bool {
	switch id {
	case task.INSearch, task.INInsert, task.INDelete, task.KC, task.RD:
		return true
	case task.WR:
		// Response building stays off the GPU (NIC-adjacent buffers).
		return helperDev == apu.CPU
	default:
		return false
	}
}

// EvaluateConfig solves the batch size for cfg under the latency interval and
// returns the prediction (Eq 4).
func (pl *Planner) EvaluateConfig(cfg pipeline.Config, prof task.Profile) Prediction {
	// Stage times are ≈ affine in N; fit from two probes, solve Tmax(N) = I.
	n1, n2 := 1024, 4096
	t1 := pl.stageTimes(cfg, prof, n1)
	t2 := pl.stageTimes(cfg, prof, n2)
	best := pl.MaxBatch
	for s := 0; s < 3; s++ {
		slope := float64(t2[s]-t1[s]) / float64(n2-n1)
		if slope <= 0 {
			continue
		}
		intercept := float64(t1[s]) - slope*float64(n1)
		nCap := int((float64(pl.Interval) - intercept) / slope)
		if nCap < best {
			best = nCap
		}
	}
	if best < pl.MinBatch {
		best = pl.MinBatch
	}
	if best > pl.MaxBatch {
		best = pl.MaxBatch
	}
	times := pl.stageTimes(cfg, prof, best)
	p := Prediction{Config: cfg, Batch: best, StageTimes: times, Tmax: max(times[0], times[1], times[2])}
	if p.Tmax > 0 {
		p.ThroughputOPS = float64(best) / p.Tmax.Seconds()
	}
	return p
}

// Best searches the entire configuration space (§IV-B) and returns the
// highest-throughput prediction plus every evaluated candidate (for the
// Fig 10 best/worst comparison).
func (pl *Planner) Best(prof task.Profile) (Prediction, []Prediction) {
	return pl.BestFiltered(prof, nil)
}

// BestFiltered is Best restricted to configurations accepted by keep (nil
// keeps everything). The ablation experiments use filters to switch off
// individual DIDO techniques: e.g. pinning the pipeline shape to Mega-KV's
// isolates flexible index assignment (Fig 13), forcing index ops to the GPU
// isolates dynamic partitioning (Fig 14).
func (pl *Planner) BestFiltered(prof task.Profile, keep func(pipeline.Config) bool) (Prediction, []Prediction) {
	configs := pipeline.Enumerate(pl.Platform.CPU.Cores)
	preds := make([]Prediction, 0, len(configs))
	var best Prediction
	for _, cfg := range configs {
		if keep != nil && !keep(cfg) {
			continue
		}
		p := pl.EvaluateConfig(cfg, prof)
		preds = append(preds, p)
		if p.ThroughputOPS > best.ThroughputOPS {
			best = p
		}
	}
	return best, preds
}
