// Package dido assembles the simulated DIDO system (paper Fig 7): the query
// processing pipeline, the workload profiler, and the APU-aware cost model,
// closed into the adaptation loop of §III-A — profile each batch, and when
// the workload moves more than the trigger threshold, search the
// configuration space and install the best pipeline for subsequent batches.
//
// The package also holds the simulator the figures run on: the ground-truth
// Executor, which applies each batch to a real store and prices its stages on
// the APU timing model (work stealing included, exec.go), and the Runner,
// which drives batches through the stages on a simulated clock (runner.go).
//
// The same machinery, with adaptation switched off and the configuration
// pinned, is the Mega-KV baseline (see internal/megakv).
package dido

import (
	"time"

	"repro/internal/apu"
	"repro/internal/costmodel"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/store"
	"repro/internal/task"
)

// Options configures a System.
type Options struct {
	// Platform defaults to the Kaveri APU.
	Platform apu.Platform
	// MemoryBytes is the store's arena budget.
	MemoryBytes int64
	// IndexEntries sizes the cuckoo index.
	IndexEntries int
	// Net is the network cost profile (kernel, DPDK, none).
	Net netsim.CostProfile
	// LatencyBudget is the average end-to-end latency bound; the periodic
	// scheduling interval is derived from it (budget / pipeline depth).
	LatencyBudget time.Duration
	// Noise is the timing-model noise amplitude (ground truth only).
	Noise float64
	// Seed drives all deterministic randomness.
	Seed uint64

	// Ablation switches (default: everything on, as in DIDO proper).

	// DisableDynamicPipeline pins the pipeline shape (GPU depth and core
	// split) to Mega-KV's; index assignment may still vary.
	DisableDynamicPipeline bool
	// DisableIndexAssignment forces all three index operations to the GPU,
	// as in Mega-KV.
	DisableIndexAssignment bool
	// DisableWorkStealing stops the adaptation loop layering work stealing
	// on the shape it chose.
	DisableWorkStealing bool
	// StaticConfig, when non-nil, disables adaptation entirely and runs the
	// given configuration forever (the Mega-KV baseline).
	StaticConfig *pipeline.Config
}

// DefaultOptions returns options matching the paper's evaluation setup:
// Kaveri APU, 1908 MB arena (scaled by memBytes), kernel networking, 1000 µs
// latency budget.
func DefaultOptions(memBytes int64) Options {
	return Options{
		Platform:      apu.KaveriPlatform(),
		MemoryBytes:   memBytes,
		Net:           netsim.KernelNetworking(),
		LatencyBudget: 1000 * time.Microsecond,
		Noise:         0.03,
		Seed:          1,
	}
}

// System is a runnable DIDO instance.
type System struct {
	Store    *store.Store
	Exec     *Executor
	Planner  *costmodel.Planner
	Profiler *profiler.Profiler
	Runner   *Runner

	opts Options

	cfg     pipeline.Config
	sizer   pipeline.BatchSizer
	replans uint64
}

// New builds a System from opts.
func New(opts Options) *System {
	if opts.Platform.CPU.Cores == 0 {
		opts.Platform = apu.KaveriPlatform()
	}
	if opts.MemoryBytes <= 0 {
		opts.MemoryBytes = 256 << 20
	}
	if opts.Net.Name == "" {
		opts.Net = netsim.KernelNetworking()
	}
	if opts.LatencyBudget <= 0 {
		opts.LatencyBudget = 1000 * time.Microsecond
	}
	st := store.New(store.Config{
		MemoryBytes:  opts.MemoryBytes,
		IndexEntries: opts.IndexEntries,
		Seed:         opts.Seed,
	})
	model := apu.NewModel(opts.Platform, opts.Noise, opts.Seed)
	exec := NewExecutor(model, st, opts.Net)
	interval := opts.LatencyBudget / 3 // three-stage pipeline depth
	planner := costmodel.NewPlanner(opts.Platform, interval)
	s := &System{
		Store:    st,
		Exec:     exec,
		Planner:  planner,
		Profiler: profiler.New(st),
		Runner:   &Runner{Exec: exec},
		opts:     opts,
		cfg:      pipeline.MegaKV(),
		sizer:    pipeline.BatchSizer{Interval: interval, Min: planner.MinBatch, Max: planner.MaxBatch},
	}
	s.sizer.Set(pipeline.DefaultInitialBatch)
	if opts.StaticConfig != nil {
		s.cfg = *opts.StaticConfig
	}
	return s
}

// Options returns the options the system was built with.
func (s *System) Options() Options { return s.opts }

// Replans returns how many times the adaptation loop installed a new config.
func (s *System) Replans() uint64 { return s.replans }

// CurrentConfig returns the configuration in effect for the next batch.
func (s *System) CurrentConfig() pipeline.Config { return s.cfg }

// keep implements the ablation filters over the configuration space. The
// space itself holds no work-stealing variants: the paper layers stealing on
// top of the chosen partitioning at runtime (§V-D3), which NextConfig does.
func (s *System) keep(cfg pipeline.Config) bool {
	mega := pipeline.MegaKV()
	if s.opts.DisableDynamicPipeline {
		if cfg.GPUDepth != mega.GPUDepth || cfg.CPUCoresPre != mega.CPUCoresPre {
			return false
		}
	}
	if s.opts.DisableIndexAssignment {
		if cfg.GPUDepth == 0 {
			return false
		}
		if cfg.InsertOn != apu.GPU || cfg.DeleteOn != apu.GPU {
			return false
		}
	}
	return true
}

// NextConfig implements pipeline.ConfigProvider: the adaptation loop.
func (s *System) NextConfig(prev *pipeline.Batch) (pipeline.Config, int) {
	if prev == nil {
		return s.cfg, s.sizer.Current()
	}
	if s.opts.StaticConfig != nil {
		// Baseline mode: static config, feedback-sized batches.
		return s.cfg, s.sizer.Observe(prev)
	}
	measured, replan := s.Profiler.Observe(prev.Profile)
	if replan {
		best, _ := s.Planner.BestFiltered(s.plannerProfile(measured), s.keep)
		if best.ThroughputOPS > 0 {
			cfg := best.Config
			batch := best.Batch
			if !s.opts.DisableWorkStealing && cfg.GPUDepth > 0 {
				// Stealing is layered on the chosen shape at runtime; re-price
				// to get the batch size Eq 3 supports.
				cfg.WorkStealing = true
				withWS := s.Planner.EvaluateConfig(cfg, s.plannerProfile(measured))
				if withWS.ThroughputOPS >= best.ThroughputOPS {
					batch = withWS.Batch
				} else {
					cfg.WorkStealing = false
				}
			}
			s.cfg = cfg
			s.sizer.Set(batch)
			s.replans++
			return s.cfg, s.sizer.Current()
		}
	}
	// Between replans the size follows the shared feedback controller,
	// nudging Tmax toward the scheduling interval.
	return s.cfg, s.sizer.Observe(prev)
}

// plannerProfile strips ground-truth-only measurements before handing the
// profile to the cost model: the planner must derive the cache-hit portion
// analytically, not read the simulator's LRU (DESIGN.md honesty rule).
func (s *System) plannerProfile(p task.Profile) task.Profile {
	p.CacheHitPortion = 0
	return p
}

// Run drives nBatches from src through the system and returns the aggregate
// result.
func (s *System) Run(src Source, nBatches int) Result {
	return s.Runner.Run(src, s, nBatches)
}

// Warm pre-populates the store with n objects from keys produced by keyAt,
// value size valueBytes — the experiments fill the arena before measuring,
// like the paper loading its data sets (§V-A).
func (s *System) Warm(keyAt func(rank uint64, dst []byte) []byte, n uint64, valueBytes int) {
	val := make([]byte, valueBytes)
	var buf []byte
	for i := uint64(1); i <= n; i++ {
		buf = keyAt(i, buf)
		s.Store.Set(buf, val)
	}
}
