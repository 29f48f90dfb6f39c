package pipeline

import (
	"time"

	"repro/internal/proto"
	"repro/internal/task"
)

// StageTimes is the priced execution of one batch under one configuration.
type StageTimes struct {
	// Dur is the execution time of each stage (zero for empty stages).
	Dur [3]time.Duration
	// Tmax is the longest stage, the pipeline's throughput bound (Eq 4).
	Tmax time.Duration
	// StolenByCPU / StolenByGPU count queries whose bottleneck-stage work was
	// executed by the other processor via work stealing (simulator only).
	StolenByCPU, StolenByGPU int
	// CPUBusy / GPUBusy are the total busy times across stages per device
	// (used for utilization accounting).
	CPUBusy, GPUBusy time.Duration
}

// Batch is one unit of pipelined work. It carries its own Config so a
// reconfiguration never affects batches already in flight (§III-B1).
type Batch struct {
	Seq     uint64
	Queries []proto.Query
	Config  Config
	// Profile holds the workload characteristics measured while executing
	// this batch semantically.
	Profile task.Profile
	// Times holds the stage durations: priced by the simulator's executor,
	// measured by the live runner.
	Times StageTimes
	// Wall is the seal→completion wall latency measured by the live runner
	// (zero in the simulated path, which prices time instead of spending
	// it). Next to Times.Tmax it is what the reconfiguration trace reports
	// as "realized": Tmax is the bottleneck stage alone, Wall adds queueing
	// between stages and frame delivery.
	Wall time.Duration
	// Hits / Misses count GET outcomes (correctness accounting).
	Hits, Misses int
}

// ConfigProvider chooses the configuration and batch size for the next batch,
// given the profile measured on the previous one (zero-value profile for the
// first batch). DIDO's adaptation loop implements this; Mega-KV's provider
// returns a constant config.
type ConfigProvider interface {
	NextConfig(prev *Batch) (Config, int)
}

// ProfileConsumer is an optional ConfigProvider extension: a provider that
// returns false from WantsProfile never reads Batch.Profile, which lets the
// live runner skip the per-batch workload measurement entirely: buildProfile,
// the per-task clock reads, and the LiveMetrics poll every
// liveMetricsRefresh, which takes every slab class lock to sum evictions.
type ProfileConsumer interface{ WantsProfile() bool }
