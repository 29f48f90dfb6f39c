package dido

import (
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/workload"
)

func TestGPUUpdatesPoisonCPUStages(t *testing.T) {
	// The §V-D1 mechanism end-to-end in the executor: the same batch priced
	// with index updates on the GPU must show a slower CPU-post stage than
	// with updates on the CPU (hUMA atomic disruption), for a write-bearing
	// workload.
	st := store.New(store.Config{MemoryBytes: 16 << 20, IndexEntries: 200000, Seed: 3})
	model := apu.NewModel(apu.KaveriPlatform(), 0, 1)
	exec := NewExecutor(model, st, netsim.KernelNetworking())
	spec, _ := workload.SpecByName("K16-G95-U")
	gen := workload.NewGenerator(spec, 50000, 5)
	for i := uint64(1); i <= 30000; i++ {
		st.Set(gen.KeyAt(i, nil), make([]byte, 64))
	}
	queries := gen.Batch(8000)

	onGPU := &pipeline.Batch{Queries: queries, Config: pipeline.Config{
		GPUDepth: 1, InsertOn: apu.GPU, DeleteOn: apu.GPU, CPUCoresPre: 2}}
	exec.ExecuteBatch(onGPU)

	onCPU := &pipeline.Batch{Queries: queries, Config: pipeline.Config{
		GPUDepth: 1, InsertOn: apu.CPU, DeleteOn: apu.CPU, CPUCoresPre: 2}}
	exec.ExecuteBatch(onCPU)

	// CPU-post runs the same tasks in both configs; with updates on the GPU
	// it must be inflated by the atomic disruption.
	if onGPU.Times.Dur[pipeline.StageCPUPost] <= onCPU.Times.Dur[pipeline.StageCPUPost] {
		t.Fatalf("GPU-resident updates should inflate CPU-post: %v vs %v",
			onGPU.Times.Dur[pipeline.StageCPUPost], onCPU.Times.Dur[pipeline.StageCPUPost])
	}
}

func TestGPUSerialFracRaisesUpdateKernelCost(t *testing.T) {
	m := apu.NewModel(apu.KaveriPlatform(), 0, 1)
	base := apu.Work{N: 1000, InstrPerQuery: 140, MemAccessesPerQuery: 2}
	serial := base
	serial.GPUSerialFrac = 0.2
	tb := m.TaskTime(apu.GPU, base, 0)
	ts := m.TaskTime(apu.GPU, serial, 0)
	if ts <= tb {
		t.Fatalf("serialized kernel should cost more: %v vs %v", ts, tb)
	}
	// CPU pricing ignores the flag.
	if m.TaskTime(apu.CPU, serial, 0) != m.TaskTime(apu.CPU, base, 0) {
		t.Fatal("GPUSerialFrac must not affect CPU pricing")
	}
}

func TestFig6UpdateShareMagnitude(t *testing.T) {
	// 5% updates should eat a disproportionate share of GPU index time
	// (paper: 35-56%). Check the ground-truth pricing directly.
	m := apu.NewModel(apu.KaveriPlatform(), 0, 1)
	prof := task.Profile{
		N: 20000, GetRatio: 0.95, KeySize: 16, ValueSize: 64,
		EvictionRate: 1, AvgInsertBuckets: 2, SearchProbes: 1.5,
	}
	mk := func(id task.ID) time.Duration {
		d := task.ForTask(id, prof, task.Placement{})
		return m.TaskTime(apu.GPU, apu.Work{
			N:                     d.Queries,
			InstrPerQuery:         d.Instr,
			MemAccessesPerQuery:   d.MemAccesses,
			CacheAccessesPerQuery: d.CacheAccesses,
			SeqBytesPerQuery:      d.SeqBytes,
			GPUSerialFrac:         d.GPUSerialFrac,
		}, 0)
	}
	search := mk(task.INSearch)
	ins := mk(task.INInsert)
	del := mk(task.INDelete)
	share := (ins + del).Seconds() / (search + ins + del).Seconds()
	if share < 0.2 || share > 0.7 {
		t.Fatalf("update share = %.2f, want the paper's 0.35-0.56 band (±)", share)
	}
	// Per-op: updates are ~an order of magnitude costlier than searches.
	perOpSearch := search.Seconds() / float64(19000)
	perOpIns := ins.Seconds() / float64(1000)
	if perOpIns < 4*perOpSearch {
		t.Fatalf("per-op insert %.1fns should be >>4x per-op search %.1fns",
			perOpIns*1e9, perOpSearch*1e9)
	}
}

func TestPCIeTransferTime(t *testing.T) {
	l := PCIeGen3x16()
	if l.TransferTime(0) != 0 {
		t.Fatal("zero bytes should be free")
	}
	small := l.TransferTime(64)
	big := l.TransferTime(12e9) // one second worth
	if small < l.Latency {
		t.Fatal("transfer must include link latency")
	}
	if big < time.Second {
		t.Fatalf("bandwidth term missing: %v", big)
	}
}

func TestLatencyPercentilesPopulated(t *testing.T) {
	st := store.New(store.Config{MemoryBytes: 8 << 20, IndexEntries: 100000, Seed: 9})
	model := apu.NewModel(apu.KaveriPlatform(), 0.02, 1)
	exec := NewExecutor(model, st, netsim.KernelNetworking())
	spec, _ := workload.SpecByName("K16-G95-U")
	gen := workload.NewGenerator(spec, 20000, 5)
	for i := uint64(1); i <= 20000; i++ {
		st.Set(gen.KeyAt(i, nil), make([]byte, 64))
	}
	r := &Runner{Exec: exec}
	provider := &pipeline.StaticProvider{Config: pipeline.MegaKV(), Interval: 300 * time.Microsecond, MinBatch: 256, MaxBatch: 1 << 14}
	res := r.Run(gen, provider, 25)
	if res.P50Latency <= 0 || res.P99Latency < res.P50Latency {
		t.Fatalf("percentiles: p50=%v p99=%v", res.P50Latency, res.P99Latency)
	}
}
