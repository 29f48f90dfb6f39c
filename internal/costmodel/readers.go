package costmodel

import "repro/internal/task"

// Reader-parallelism sizing: how many SO_REUSEPORT ingestion queues the
// server should actually open. Unlike every other placement decision the
// controller makes, this one cannot be revisited per batch — the kernel
// keeps hashing datagrams to every REUSEPORT socket whether or not anyone
// reads it, so a queue parked after the fact would strand its flows. The
// count is therefore sized once, at startup, by the same cost model that
// places every other task: price the pipeline at k readers and keep adding
// one while predicted throughput still improves by a real margin.

// DefaultReaderBenefitThreshold is the minimum predicted throughput gain
// (fractional) an additional ingestion reader must buy before it is opened:
// model error around a flat optimum should not flap a structural decision.
const DefaultReaderBenefitThreshold = 0.05

// DefaultIngestProfile is the workload shape SizeReaders prices before any
// measurement exists: the standard small-key read-heavy mix, with the
// receive/send path assumed saturated (unit costs at the high end of what
// the live profiler measures for per-frame socket work). That is the only
// regime where extra ingestion queues can pay for themselves — if the model
// gates readers off even here, they would never help.
func DefaultIngestProfile() task.Profile {
	return task.Profile{
		GetRatio:         0.95,
		KeySize:          16,
		ValueSize:        64,
		Population:       1 << 20,
		EvictionRate:     1,
		SearchProbes:     1.5,
		AvgInsertBuckets: 1.5,
		WireQueryBytes:   32,
		RVInstr:          15,
		SDInstr:          15,
		RVUnitNanos:      500,
		SDUnitNanos:      120,
	}
}

// SizeReaders picks the effective ingestion reader (queue) count for a host
// with hostCores schedulable CPUs and a requested maximum of maxQueues.
// Readers beyond hostCores−1 cannot run beside a single stage worker and
// are refused outright (a 1-CPU host always gets 1 — the reader would just
// time-slice against the pipeline it feeds). Within that cap, the planner
// prices the whole pipeline at k and k+1 readers (RV/PP divided by the
// reader count, everything else as usual) and stops at the first step that
// fails the benefit threshold. The planner's RVReaders field is restored on
// return; the caller assigns the chosen count itself.
func (pl *Planner) SizeReaders(prof task.Profile, hostCores, maxQueues int) int {
	if maxQueues < 1 {
		maxQueues = 1
	}
	if limit := hostCores - 1; maxQueues > limit {
		maxQueues = limit
	}
	if maxQueues <= 1 {
		return 1
	}
	saved := pl.RVReaders
	defer func() { pl.RVReaders = saved }()
	throughput := func(k int) float64 {
		pl.RVReaders = k
		best, _ := pl.Best(prof)
		return best.ThroughputOPS
	}
	k := 1
	cur := throughput(1)
	for k < maxQueues {
		next := throughput(k + 1)
		if next < cur*(1+DefaultReaderBenefitThreshold) {
			break
		}
		cur = next
		k++
	}
	return k
}
