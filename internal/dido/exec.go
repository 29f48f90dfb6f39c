package dido

import (
	"time"

	"repro/internal/apu"
	"repro/internal/cuckoo"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/task"
)

// Executor semantically executes batches against the real store and prices
// them on the APU timing model. It is the reproduction's ground truth — see
// DESIGN.md §2: DIDO's planner must NOT call this; it predicts with
// internal/costmodel instead.
type Executor struct {
	Model *apu.Model
	Store *store.Store
	Net   netsim.CostProfile
	// CPUCache simulates the CPU's last-level cache over key-value objects,
	// persisting across batches so skewed workloads keep their hot set
	// resident (§V-C "Impact of Key Popularity").
	CPUCache *apu.LRUCache
	// PCIe, when non-nil, models a discrete CPU-GPU architecture: every
	// batch with a GPU stage pays host→device (keys) and device→host
	// (locations) transfer time. Coupled architectures leave this nil —
	// eliminating exactly this cost is the APU's selling point (§I).
	PCIe *PCIeLink

	candBuf []cuckoo.Location
	valBuf  []byte
}

// PCIeLink models the discrete architecture's interconnect.
type PCIeLink struct {
	// Latency is the fixed per-transfer cost (DMA setup + doorbell).
	Latency time.Duration
	// BytesPerSec is the effective link bandwidth.
	BytesPerSec float64
}

// PCIeGen3x16 returns a typical PCIe 3.0 ×16 link as used by the Mega-KV
// testbed's GTX 780s.
func PCIeGen3x16() *PCIeLink {
	return &PCIeLink{Latency: 10 * time.Microsecond, BytesPerSec: 12e9}
}

// TransferTime returns the time to move the given payload across the link.
func (l *PCIeLink) TransferTime(bytes float64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return l.Latency + time.Duration(bytes/l.BytesPerSec*float64(time.Second))
}

// NewExecutor returns an executor over the given model, store and network
// cost profile.
func NewExecutor(m *apu.Model, s *store.Store, net netsim.CostProfile) *Executor {
	return &Executor{
		Model:    m,
		Store:    s,
		Net:      net,
		CPUCache: apu.NewLRUCache(m.Platform.CPU.CacheBytes),
	}
}

// ExecuteBatch runs b's queries against the store, fills in b.Profile from
// measured counters, and prices the stage times for b.Config.
func (e *Executor) ExecuteBatch(b *pipeline.Batch) {
	e.runSemantics(b)
	e.price(b)
}

// runSemantics applies the batch to the real store, measuring the workload
// characteristics the demand model needs.
func (e *Executor) runSemantics(b *pipeline.Batch) {
	cfg := b.Config
	objCacheOnCPU := cfg.StageOf(task.KC).Device() == apu.CPU ||
		cfg.StageOf(task.RD).Device() == apu.CPU
	e.CPUCache.ResetStats()

	var gets, sets, inserts, deletes, evictions int
	var scans, scanEntries, scanEntryBytes int
	var keyBytes, valBytes, wireBytes int
	before := e.Store.Index().StatsSnapshot()

	for _, q := range b.Queries {
		wireBytes += proto.EncodedQueryLen(q)
		keyBytes += len(q.Key)
		switch q.Op {
		case proto.OpGet:
			gets++
			// IN.Search → KC → RD, exactly the decomposed path.
			e.candBuf = e.Store.IndexSearch(q.Key, e.candBuf[:0])
			found := false
			for _, loc := range e.candBuf {
				if e.Store.KeyCompare(loc, q.Key) {
					// ReadValueInto copies under the slab seqlock into a
					// reusable buffer — the RD task's stable-copy contract.
					if v, ok := e.Store.ReadValueInto(loc, e.valBuf[:0]); ok {
						e.valBuf = v[:0]
						found = true
						valBytes += len(v)
						if objCacheOnCPU {
							e.CPUCache.Access(uint64(loc), int64(len(q.Key)+len(v)))
						}
					}
					break
				}
			}
			if found {
				b.Hits++
			} else {
				b.Misses++
			}
		case proto.OpSet:
			sets++
			valBytes += len(q.Value)
			ins, dels, err := e.Store.Set(q.Key, q.Value)
			if err != nil {
				continue
			}
			inserts += ins
			deletes += dels
			if dels > 0 {
				evictions += dels
			}
		case proto.OpDelete:
			deletes++
			e.Store.Delete(q.Key)
		case proto.OpScan:
			// SC: a batched range merge over the ordered index's MVCC
			// snapshot. Scans stream sequentially, so they bypass the
			// object-cache accounting the random-access point reads feed.
			scans++
			limit, end, err := proto.ParseScanArg(q.Value)
			if err != nil {
				continue
			}
			read := 0
			e.Store.Scan(q.Key, end, limit, func(k, v []byte) bool {
				scanEntries++
				read += len(k) + len(v)
				return read < proto.MaxScanResultBytes
			})
			scanEntryBytes += read
		}
	}

	after := e.Store.Index().StatsSnapshot()
	avgInsertBuckets := 2.0
	if dIns := after.Inserts - before.Inserts; dIns > 0 {
		// Derive the average accessed buckets for this batch's inserts from
		// the table's cumulative counters (§IV-B measures this online).
		totBefore := before.AvgInsertBuckets * float64(before.Inserts)
		totAfter := after.AvgInsertBuckets * float64(after.Inserts)
		avgInsertBuckets = (totAfter - totBefore) / float64(dIns)
	}

	n := len(b.Queries)
	p := task.Profile{
		N:                n,
		SearchProbes:     cuckoo.SearchProbesTheoretical(2),
		AvgInsertBuckets: avgInsertBuckets,
		RVInstr:          e.Net.InstrPerQueryRV,
		SDInstr:          e.Net.InstrPerQuerySD,
		RVUnitNanos:      float64(e.Net.RVPerQuery.Nanoseconds()),
		SDUnitNanos:      float64(e.Net.SDPerQuery.Nanoseconds()),
	}
	if n > 0 {
		p.GetRatio = float64(gets) / float64(n)
		p.ScanRatio = float64(scans) / float64(n)
		p.KeySize = float64(keyBytes) / float64(n)
		p.WireQueryBytes = float64(wireBytes) / float64(n)
	}
	if scans > 0 {
		p.ScanEntries = float64(scanEntries) / float64(scans)
	}
	if scanEntries > 0 {
		p.ScanEntryBytes = float64(scanEntryBytes) / float64(scanEntries)
	}
	if b.Hits+sets > 0 {
		// Misses carry no object; average over value-bearing queries.
		p.ValueSize = float64(valBytes) / float64(b.Hits+sets)
	}
	if sets > 0 {
		p.EvictionRate = float64(evictions) / float64(sets)
	}
	if objCacheOnCPU {
		p.CacheHitPortion = e.CPUCache.HitRate()
	}
	p.Population = uint64(e.Store.StatsSnapshot().LiveObjects)
	b.Profile = p
}

// price computes the stage times for b.Config given b.Profile, including
// CPU↔GPU interference (fixed point over shared-bandwidth demand) and work
// stealing.
func (e *Executor) price(b *pipeline.Batch) {
	cfg := b.Config
	prof := b.Profile
	nCores := e.Model.Platform.CPU.Cores

	// Per-stage work items.
	type stageWork struct {
		works []apu.Work
		dev   apu.Kind
	}
	var stages [3]stageWork
	for s := pipeline.StageCPUPre; s <= pipeline.StageCPUPost; s++ {
		sw := &stages[s]
		sw.dev = s.Device()
		for _, id := range cfg.Tasks(s) {
			d := task.ForTask(id, prof, cfg.Placement(id))
			if d.Queries == 0 {
				continue
			}
			w := apu.Work{
				N:                     d.Queries,
				InstrPerQuery:         d.Instr,
				MemAccessesPerQuery:   d.MemAccesses,
				CacheAccessesPerQuery: d.CacheAccesses,
				SeqBytesPerQuery:      d.SeqBytes,
				GPUSerialFrac:         d.GPUSerialFrac,
			}
			if sw.dev == apu.CPU {
				w.Parallelism = cfg.CoresFor(s, nCores)
			}
			sw.works = append(sw.works, w)
		}
	}

	// Interference fixed point (Eq 2's µ, busy-overlap weighted): each
	// device sees the other's *instantaneous* bandwidth — bytes over the
	// other's busy time — scaled by the fraction of time the two actually
	// overlap in the pipelined steady state, and GPU atomics add
	// apu.AtomicDisruption's term on the CPU side. This is what makes
	// GPU-resident update kernels poison co-running CPU stages (the paper's
	// §V-D1 observation behind flexible index assignment).
	var times pipeline.StageTimes
	var base [3]time.Duration
	var intBytes [3]float64
	var gpuAtomics float64 // platform-atomic accesses issued by GPU stages
	for s := range stages {
		var sum time.Duration
		for _, w := range stages[s].works {
			sum += e.Model.TaskTime(stages[s].dev, w, 0)
			intBytes[s] += e.Model.BytesTouched(stages[s].dev, w)
			if stages[s].dev == apu.GPU && w.GPUSerialFrac > 0 {
				gpuAtomics += w.MemAccessesPerQuery * float64(w.N)
			}
		}
		base[s] = sum
		times.Dur[s] = sum
	}
	for iter := 0; iter < 3; iter++ {
		times.Tmax = max(times.Dur[0], times.Dur[1], times.Dur[2])
		if times.Tmax <= 0 {
			break
		}
		gpuBusy := times.Dur[pipeline.StageGPU]
		cpuBusy := times.Dur[pipeline.StageCPUPre] + times.Dur[pipeline.StageCPUPost]
		var gpuInstBW, cpuInstBW float64
		if gpuBusy > 0 {
			gpuInstBW = intBytes[pipeline.StageGPU] / gpuBusy.Seconds()
		}
		if cpuBusy > 0 {
			cpuInstBW = (intBytes[pipeline.StageCPUPre] + intBytes[pipeline.StageCPUPost]) / cpuBusy.Seconds()
		}
		overlapOnCPU := min(max(float64(gpuBusy)/float64(times.Tmax), 0), 1)
		overlapOnGPU := min(max(float64(cpuBusy)/float64(times.Tmax), 0), 1)
		muCPU := 1 + (e.Model.Mu(apu.CPU, cpuInstBW, gpuInstBW)-1)*overlapOnCPU
		// hUMA platform atomics from GPU update kernels stall the CPU's
		// memory path via coherence transactions (§III-B2's atomics).
		muCPU += apu.AtomicDisruption(gpuAtomics, times.Tmax)
		muGPU := 1 + (e.Model.Mu(apu.GPU, gpuInstBW, cpuInstBW)-1)*overlapOnGPU
		times.Dur[pipeline.StageCPUPre] = time.Duration(float64(base[pipeline.StageCPUPre]) * muCPU)
		times.Dur[pipeline.StageCPUPost] = time.Duration(float64(base[pipeline.StageCPUPost]) * muCPU)
		times.Dur[pipeline.StageGPU] = time.Duration(float64(base[pipeline.StageGPU]) * muGPU)
	}

	// Discrete architectures pay PCIe transfers around the GPU stage: keys
	// and op codes go in, matched locations come back (Mega-KV's design).
	if e.PCIe != nil && times.Dur[pipeline.StageGPU] > 0 {
		inBytes := float64(prof.N) * (prof.KeySize + 16)
		outBytes := float64(prof.N) * 8
		times.Dur[pipeline.StageGPU] += e.PCIe.TransferTime(inBytes) + e.PCIe.TransferTime(outBytes)
	}

	if cfg.WorkStealing {
		e.steal(&times, cfg, prof)
	}

	times.Tmax = max(times.Dur[0], times.Dur[1], times.Dur[2])
	times.CPUBusy = times.Dur[pipeline.StageCPUPre] + times.Dur[pipeline.StageCPUPost]
	times.GPUBusy = times.Dur[pipeline.StageGPU]
	b.Times = times
}

// stealableOn reports whether task id's work can execute on helper device
// helperDev: NIC-bound tasks (RV, PP, SD) and memory management stay put;
// index ops and object reads can move either way (the paper's §III-B3
// mentions the GPU performing "tasks such as KC or RD on the stolen jobs");
// WR builds response packets in NIC-adjacent buffers and is only stealable
// by CPU helpers.
func stealableOn(id task.ID, helperDev apu.Kind) bool {
	switch id {
	case task.INSearch, task.INInsert, task.INDelete, task.KC, task.RD:
		return true
	case task.WR:
		return helperDev == apu.CPU
	default:
		return false
	}
}

// stealChunk is the work-stealing granularity: each tag of the paper's tag
// array guards 64 queries, one GCN wavefront (§III-B3). It is fixed rather
// than read from the platform's GPU, whose wavefront width differs on the
// discrete configuration.
const stealChunk = 64

// steal rebalances the bottleneck stage onto the other device at
// stealChunk granularity, updating stage durations and stolen-query counts.
func (e *Executor) steal(times *pipeline.StageTimes, cfg pipeline.Config, prof task.Profile) {
	// Identify bottleneck stage and the helper device.
	bi := 0
	for s := 1; s < 3; s++ {
		if times.Dur[s] > times.Dur[bi] {
			bi = s
		}
	}
	bStage := pipeline.Stage(bi)
	bDev := bStage.Device()
	helperDev := apu.CPU
	if bDev == apu.CPU {
		helperDev = apu.GPU
	}
	if cfg.GPUDepth == 0 {
		return // no GPU participation at all
	}

	// Helper readiness: the helper device is free after its own stages.
	var helperBusy time.Duration
	for s := pipeline.StageCPUPre; s <= pipeline.StageCPUPost; s++ {
		if s.Device() == helperDev {
			helperBusy += times.Dur[s]
		}
	}
	if helperBusy >= times.Dur[bStage] {
		return // no idle time to exploit
	}

	// Split the bottleneck stage into stealable and pinned portions and
	// price the stealable tasks on both devices.
	var stealOwn, pinned time.Duration
	var stealHelper time.Duration
	var stealQueries int
	nCores := e.Model.Platform.CPU.Cores
	for _, id := range cfg.Tasks(bStage) {
		d := task.ForTask(id, prof, cfg.Placement(id))
		if d.Queries == 0 {
			continue
		}
		w := apu.Work{
			N:                     d.Queries,
			InstrPerQuery:         d.Instr,
			MemAccessesPerQuery:   d.MemAccesses,
			CacheAccessesPerQuery: d.CacheAccesses,
			SeqBytesPerQuery:      d.SeqBytes,
			GPUSerialFrac:         d.GPUSerialFrac,
		}
		if bDev == apu.CPU {
			w.Parallelism = cfg.CoresFor(bStage, nCores)
		}
		own := e.Model.TaskTime(bDev, w, 0)
		if !stealableOn(id, helperDev) {
			pinned += own
			continue
		}
		stealOwn += own
		wh := w
		if helperDev == apu.CPU {
			// The helper CPU stage's cores do the stealing.
			helperStage := pipeline.StageCPUPost
			if times.Dur[pipeline.StageCPUPre] < times.Dur[pipeline.StageCPUPost] {
				helperStage = pipeline.StageCPUPre
			}
			wh.Parallelism = cfg.CoresFor(helperStage, nCores)
		} else {
			wh.Parallelism = 0
		}
		stealHelper += e.Model.TaskTime(helperDev, wh, 0)
		// stealQueries is the stage's stealable query SPAN — the widest
		// task's query count — not a per-task sum. A stolen chunk is a
		// vertical slice: 64 query slots taking ALL the stage's stealable
		// task work for those slots with them (KC and RD cover the same
		// GETs; summing per task would double-count every shared query).
		// Eq 3's closed form prices exactly this divisible load: per-chunk
		// cost below is total stealable time / chunk count over the span,
		// and StolenBy* counts moved query slots, clamped to the span.
		if d.Queries > stealQueries {
			stealQueries = d.Queries
		}
	}
	if stealQueries == 0 || stealOwn <= 0 {
		return
	}

	// Chunk-granular co-processing: both devices claim 64-query chunks.
	chunks := (stealQueries + stealChunk - 1) / stealChunk
	perChunkOwn := stealOwn / time.Duration(chunks)
	perChunkHelper := stealHelper / time.Duration(chunks)
	tOwn := pinned // bottleneck device works through pinned tasks too
	tHelper := helperBusy
	ownChunks, helperChunks := 0, 0
	for c := 0; c < chunks; c++ {
		if tOwn+perChunkOwn <= tHelper+perChunkHelper {
			tOwn += perChunkOwn
			ownChunks++
		} else {
			tHelper += perChunkHelper
			helperChunks++
		}
	}
	newBottleneck := tOwn
	if helperChunks == 0 {
		return
	}
	stolen := helperChunks * stealChunk
	if stolen > stealQueries {
		stolen = stealQueries
	}
	times.Dur[bStage] = newBottleneck
	// Helper's busiest stage absorbs the stolen time.
	for s := pipeline.StageCPUPre; s <= pipeline.StageCPUPost; s++ {
		if s.Device() == helperDev {
			times.Dur[s] += tHelper - helperBusy
			break
		}
	}
	if helperDev == apu.CPU {
		times.StolenByCPU += stolen
	} else {
		times.StolenByGPU += stolen
	}
}
