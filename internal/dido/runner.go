package dido

import (
	"time"

	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/stats"
)

// Source produces batches of queries on demand.
type Source interface {
	// Batch returns n queries.
	Batch(n int) []proto.Query
}

// TracePoint is one sample of the throughput trace (Fig 20).
type TracePoint struct {
	At         time.Duration
	Throughput float64 // queries/sec over the sampling window
	Config     pipeline.Config
}

// Result summarizes a pipeline run.
type Result struct {
	// Queries is the number completed; Elapsed the simulated time span.
	Queries uint64
	Elapsed time.Duration
	// ThroughputMOPS is Queries/Elapsed in millions of ops/sec (Eq 4).
	ThroughputMOPS float64
	// CPUUtilization / GPUUtilization are busy fractions over the run.
	CPUUtilization, GPUUtilization float64
	// AvgLatency is the mean batch latency (arrival → last stage done).
	AvgLatency time.Duration
	// P50Latency / P99Latency are batch-latency percentiles.
	P50Latency, P99Latency time.Duration
	// AvgBatch is the mean batch size.
	AvgBatch float64
	// StageMean is the mean duration per stage.
	StageMean [3]time.Duration
	// StolenByCPU / StolenByGPU total work-stealing volume in queries.
	StolenByCPU, StolenByGPU uint64
	// Hits and Misses aggregate GET outcomes.
	Hits, Misses uint64
	// Trace samples throughput over time when tracing was enabled.
	Trace []TracePoint
	// Batches is the number of batches executed.
	Batches uint64
}

// stageClock is one pipeline stage's occupancy on the simulated clock: the
// stage serves batches FIFO, one at a time, each for its priced duration.
type stageClock struct {
	busyUntil time.Duration // when all accepted work completes
	busyTotal time.Duration // cumulative service time accepted
}

// acquireAt queues a service of the given length that cannot start before
// earliest and returns its completion time. A negative service is clamped to
// zero.
func (c *stageClock) acquireAt(earliest, service time.Duration) time.Duration {
	if service < 0 {
		service = 0
	}
	start := max(earliest, c.busyUntil)
	c.busyUntil = start + service
	c.busyTotal += service
	return c.busyUntil
}

// Runner drives batches through the three pipeline stages on a simulated
// clock, with one stageClock per stage providing pipelining and
// back-pressure.
type Runner struct {
	Exec *Executor
	// TraceEvery, when positive, records a throughput sample each window.
	TraceEvery time.Duration
}

// Run executes nBatches batches from src, choosing per-batch config and size
// via provider. It returns aggregate metrics; the simulated clock starts at
// zero for each call.
func (r *Runner) Run(src Source, provider pipeline.ConfigProvider, nBatches int) Result {
	var now time.Duration // simulated time: when stage 1 admits the next batch
	var cpuPre, gpu, cpuPost stageClock

	var res Result
	var latSum time.Duration
	var batchSum uint64
	var stageSum [3]time.Duration
	var lastDone time.Duration
	var prev *pipeline.Batch
	nCores := r.Exec.Model.Platform.CPU.Cores
	var cpuCoreBusy float64 // core-weighted CPU busy time (core·seconds)
	latHist := stats.NewHistogram(stats.LatencyBoundsMicros()...)

	var windowOps uint64
	windowStart := time.Duration(0)

	for i := 0; i < nBatches; i++ {
		cfg, n := provider.NextConfig(prev)
		if n < 1 {
			n = 1
		}
		b := &pipeline.Batch{Seq: uint64(i), Queries: src.Batch(n), Config: cfg}
		r.Exec.ExecuteBatch(b)

		arrival := now
		// Stage 1 (CPU-pre) admits the batch when its clock frees.
		t1 := cpuPre.acquireAt(now, b.Times.Dur[pipeline.StageCPUPre])
		t2 := t1
		if b.Times.Dur[pipeline.StageGPU] > 0 {
			t2 = gpu.acquireAt(t1, b.Times.Dur[pipeline.StageGPU])
		}
		t3 := t2
		if b.Times.Dur[pipeline.StageCPUPost] > 0 {
			t3 = cpuPost.acquireAt(t2, b.Times.Dur[pipeline.StageCPUPost])
		}
		done := t3
		if done > lastDone {
			lastDone = done
		}

		latSum += done - arrival
		latHist.Observe(float64(done-arrival) / float64(time.Microsecond))
		batchSum += uint64(len(b.Queries))
		for s := 0; s < 3; s++ {
			stageSum[s] += b.Times.Dur[s]
		}
		cpuCoreBusy += b.Times.Dur[pipeline.StageCPUPre].Seconds()*float64(cfg.CoresFor(pipeline.StageCPUPre, nCores)) +
			b.Times.Dur[pipeline.StageCPUPost].Seconds()*float64(cfg.CoresFor(pipeline.StageCPUPost, nCores))
		res.StolenByCPU += uint64(b.Times.StolenByCPU)
		res.StolenByGPU += uint64(b.Times.StolenByGPU)
		res.Hits += uint64(b.Hits)
		res.Misses += uint64(b.Misses)
		res.Queries += uint64(len(b.Queries))
		res.Batches++

		// Advance the clock to when stage 1 can admit the next batch
		// (back-pressure: the pipeline is saturated, not open-loop).
		now = cpuPre.busyUntil

		if r.TraceEvery > 0 {
			windowOps += uint64(len(b.Queries))
			for now-windowStart >= r.TraceEvery {
				// A batch can span several windows; emit a point only for
				// windows in which work completed.
				if windowOps > 0 {
					res.Trace = append(res.Trace, TracePoint{
						At:         windowStart + r.TraceEvery,
						Throughput: float64(windowOps) / r.TraceEvery.Seconds(),
						Config:     cfg,
					})
					windowOps = 0
				}
				windowStart += r.TraceEvery
			}
		}
		prev = b
	}

	res.Elapsed = lastDone
	if res.Elapsed > 0 {
		res.ThroughputMOPS = stats.MOPS(res.Queries, res.Elapsed)
		res.CPUUtilization = min(max(cpuCoreBusy/(res.Elapsed.Seconds()*float64(nCores)), 0), 1)
		res.GPUUtilization = min(max(float64(gpu.busyTotal)/float64(res.Elapsed), 0), 1)
	}
	if res.Batches > 0 {
		res.AvgLatency = latSum / time.Duration(res.Batches)
		res.P50Latency = time.Duration(latHist.Quantile(0.5)) * time.Microsecond
		res.P99Latency = time.Duration(latHist.Quantile(0.99)) * time.Microsecond
		res.AvgBatch = float64(batchSum) / float64(res.Batches)
		for s := 0; s < 3; s++ {
			res.StageMean[s] = stageSum[s] / time.Duration(res.Batches)
		}
	}
	return res
}
