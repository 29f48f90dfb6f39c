package dido

import (
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/workload"
)

func newTestExec(t *testing.T) (*Executor, *workload.Generator) {
	t.Helper()
	st := store.New(store.Config{MemoryBytes: 16 << 20, IndexEntries: 200000, Seed: 7})
	model := apu.NewModel(apu.KaveriPlatform(), 0, 1) // no noise for determinism
	exec := NewExecutor(model, st, netsim.KernelNetworking())
	spec, _ := workload.SpecByName("K16-G95-U")
	gen := workload.NewGenerator(spec, 50000, 11)
	return exec, gen
}

func warm(exec *Executor, gen *workload.Generator, n int) {
	for i := uint64(1); i <= uint64(n); i++ {
		key := gen.KeyAt(i, nil)
		exec.Store.Set(key, make([]byte, gen.Spec.ValueSize))
	}
}

func TestExecuteBatchMeasuresProfile(t *testing.T) {
	exec, gen := newTestExec(t)
	warm(exec, gen, 10000)
	b := &pipeline.Batch{Queries: gen.Batch(5000), Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b)
	p := b.Profile
	if p.N != 5000 {
		t.Fatalf("profile N = %d", p.N)
	}
	if p.GetRatio < 0.92 || p.GetRatio > 0.98 {
		t.Fatalf("GET ratio = %v, want ~0.95", p.GetRatio)
	}
	if p.KeySize != 16 {
		t.Fatalf("key size = %v", p.KeySize)
	}
	if p.ValueSize < 55 || p.ValueSize > 65 {
		t.Fatalf("value size = %v, want ~64 (hit values + set values)", p.ValueSize)
	}
	if b.Hits == 0 {
		t.Fatal("warm store should produce GET hits")
	}
	if p.AvgInsertBuckets < 1 {
		t.Fatalf("avg insert buckets = %v", p.AvgInsertBuckets)
	}
}

func TestExecuteBatchStageTimes(t *testing.T) {
	exec, gen := newTestExec(t)
	warm(exec, gen, 10000)
	b := &pipeline.Batch{Queries: gen.Batch(8000), Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b)
	if b.Times.Tmax <= 0 {
		t.Fatal("no stage time computed")
	}
	for s := 0; s < 3; s++ {
		if b.Times.Dur[s] <= 0 {
			t.Fatalf("stage %d has zero duration under Mega-KV config", s)
		}
		if b.Times.Dur[s] > b.Times.Tmax {
			t.Fatal("Tmax is not the max")
		}
	}
}

func TestFig4ShapeReadAndSendDominates(t *testing.T) {
	// Paper Fig 4: under Mega-KV on the coupled architecture, Read & Send
	// Value (CPU-post) dominates; Network Processing is light.
	exec, gen := newTestExec(t)
	warm(exec, gen, 10000)
	b := &pipeline.Batch{Queries: gen.Batch(10000), Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b)
	post := b.Times.Dur[pipeline.StageCPUPost]
	gpuStage := b.Times.Dur[pipeline.StageGPU]
	if post <= gpuStage {
		t.Fatalf("CPU-post (%v) should dominate GPU index stage (%v) on K16", post, gpuStage)
	}
}

func TestDynamicPipelineBalances(t *testing.T) {
	// Moving KC+RD to the GPU must shrink the CPU-post stage (the paper's
	// pipeline 2 for small key-value read-heavy workloads).
	exec, gen := newTestExec(t)
	warm(exec, gen, 10000)
	queries := gen.Batch(10000)

	mega := &pipeline.Batch{Queries: queries, Config: pipeline.MegaKV()}
	exec.ExecuteBatch(mega)

	dido := &pipeline.Batch{Queries: queries, Config: pipeline.Config{
		GPUDepth: 3, InsertOn: apu.CPU, DeleteOn: apu.CPU, CPUCoresPre: 2,
	}}
	exec.ExecuteBatch(dido)

	if dido.Times.Dur[pipeline.StageCPUPost] >= mega.Times.Dur[pipeline.StageCPUPost] {
		t.Fatalf("moving KC,RD to GPU should shrink CPU-post: %v vs %v",
			dido.Times.Dur[pipeline.StageCPUPost], mega.Times.Dur[pipeline.StageCPUPost])
	}
}

func TestWorkStealingReducesBottleneck(t *testing.T) {
	exec, gen := newTestExec(t)
	warm(exec, gen, 10000)
	queries := gen.Batch(10000)

	base := pipeline.Config{GPUDepth: 1, InsertOn: apu.CPU, DeleteOn: apu.CPU, CPUCoresPre: 2}
	noWS := &pipeline.Batch{Queries: queries, Config: base}
	exec.ExecuteBatch(noWS)

	ws := base
	ws.WorkStealing = true
	withWS := &pipeline.Batch{Queries: queries, Config: ws}
	exec.ExecuteBatch(withWS)

	if withWS.Times.Tmax > noWS.Times.Tmax {
		t.Fatalf("work stealing increased Tmax: %v vs %v", withWS.Times.Tmax, noWS.Times.Tmax)
	}
	stolen := withWS.Times.StolenByCPU + withWS.Times.StolenByGPU
	if stolen == 0 {
		t.Fatal("work stealing moved nothing on an imbalanced pipeline")
	}
	// StolenBy* bookkeeping: counts are moved query SLOTS over the stage's
	// stealable span (see steal's vertical-slice accounting) — whole 64-query
	// chunks except a possible clamped tail, and never more than the batch.
	if stolen > len(queries) {
		t.Fatalf("stolen %d > batch %d: stolen slots cannot exceed the span", stolen, len(queries))
	}
	// The span is the widest stealable task's query count; with GETs in the
	// majority that is the GET count (IN.Search/KC/RD all cover it).
	gets := 0
	for _, q := range queries {
		if q.Op == proto.OpGet {
			gets++
		}
	}
	if stolen%stealChunk != 0 && stolen != gets && stolen != len(queries) {
		t.Fatalf("stolen = %d: must be whole %d-query chunks unless clamped to the span (%d gets / %d queries)",
			stolen, stealChunk, gets, len(queries))
	}
	// Only one device can be the helper for one bottleneck stage.
	if withWS.Times.StolenByCPU > 0 && withWS.Times.StolenByGPU > 0 {
		t.Fatalf("both devices stole in one batch: CPU=%d GPU=%d", withWS.Times.StolenByCPU, withWS.Times.StolenByGPU)
	}
	// Rerunning the same batch without stealing must leave the counters at
	// zero — they are priced only when the sealed config asks for it.
	if noWS.Times.StolenByCPU+noWS.Times.StolenByGPU != 0 {
		t.Fatal("non-stealing run booked stolen queries")
	}
}

func TestCacheHitPortionOnlyOnCPU(t *testing.T) {
	// Skewed workload: KC/RD on the CPU should observe cache hits; with
	// KC/RD on the GPU the measured portion must be zero.
	st := store.New(store.Config{MemoryBytes: 16 << 20, IndexEntries: 200000, Seed: 7})
	model := apu.NewModel(apu.KaveriPlatform(), 0, 1)
	exec := NewExecutor(model, st, netsim.KernelNetworking())
	spec, _ := workload.SpecByName("K16-G95-S")
	gen := workload.NewGenerator(spec, 50000, 3)
	warm(exec, gen, 20000)

	cpu := &pipeline.Batch{Queries: gen.Batch(8000), Config: pipeline.MegaKV()} // KC,RD on CPU
	exec.ExecuteBatch(cpu)
	if cpu.Profile.CacheHitPortion <= 0.1 {
		t.Fatalf("skewed CPU-side cache-hit portion = %v, want > 0.1", cpu.Profile.CacheHitPortion)
	}

	gpuCfg := pipeline.Config{GPUDepth: 4, InsertOn: apu.GPU, DeleteOn: apu.GPU, CPUCoresPre: 2}
	gpuB := &pipeline.Batch{Queries: gen.Batch(8000), Config: gpuCfg}
	exec.ExecuteBatch(gpuB)
	if gpuB.Profile.CacheHitPortion != 0 {
		t.Fatalf("GPU-side cache-hit portion = %v, want 0", gpuB.Profile.CacheHitPortion)
	}
}

func TestEvictionRateMeasured(t *testing.T) {
	// A tiny arena at steady state evicts on ~every SET.
	st := store.New(store.Config{MemoryBytes: 2 << 20, IndexEntries: 50000, Seed: 9})
	model := apu.NewModel(apu.KaveriPlatform(), 0, 1)
	exec := NewExecutor(model, st, netsim.KernelNetworking())
	spec, _ := workload.SpecByName("K16-G50-U")
	gen := workload.NewGenerator(spec, 1<<20, 5) // population far beyond arena
	// Fill the arena well past capacity.
	for i := 0; i < 3; i++ {
		b := &pipeline.Batch{Queries: gen.Batch(20000), Config: pipeline.MegaKV()}
		exec.ExecuteBatch(b)
	}
	b := &pipeline.Batch{Queries: gen.Batch(10000), Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b)
	if b.Profile.EvictionRate < 0.8 {
		t.Fatalf("steady-state eviction rate = %v, want ~1 (paper §II-C2)", b.Profile.EvictionRate)
	}
}

func TestEmptyBatch(t *testing.T) {
	exec, _ := newTestExec(t)
	b := &pipeline.Batch{Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b)
	if b.Times.Tmax != 0 {
		t.Fatalf("empty batch Tmax = %v", b.Times.Tmax)
	}
}

func TestStealNoopOnBalancedOrCPUOnly(t *testing.T) {
	exec, gen := newTestExec(t)
	warm(exec, gen, 5000)
	// Pure CPU pipeline: stealing is structurally impossible.
	b := &pipeline.Batch{Queries: gen.Batch(2000), Config: pipeline.Config{GPUDepth: 0, WorkStealing: true}}
	exec.ExecuteBatch(b)
	if b.Times.StolenByCPU+b.Times.StolenByGPU != 0 {
		t.Fatal("stealing occurred on a CPU-only pipeline")
	}
	if b.Times.Dur[pipeline.StageGPU] != 0 {
		t.Fatal("GPU stage time on CPU-only pipeline")
	}
}

func TestLargeValuesShiftBottleneckToPost(t *testing.T) {
	// K128: CPU-post grows heavier relative to the GPU index stage
	// (Fig 4's rightmost group).
	st := store.New(store.Config{MemoryBytes: 64 << 20, IndexEntries: 100000, Seed: 7})
	model := apu.NewModel(apu.KaveriPlatform(), 0, 1)
	exec := NewExecutor(model, st, netsim.KernelNetworking())
	spec, _ := workload.SpecByName("K128-G95-U")
	gen := workload.NewGenerator(spec, 30000, 13)
	for i := uint64(1); i <= 20000; i++ {
		exec.Store.Set(gen.KeyAt(i, nil), make([]byte, 1024))
	}
	b := &pipeline.Batch{Queries: gen.Batch(4000), Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b)
	ratio := float64(b.Times.Dur[pipeline.StageCPUPost]) / float64(b.Times.Dur[pipeline.StageGPU])
	if ratio < 2 {
		t.Fatalf("K128 post/GPU ratio = %.2f, want > 2 (severe imbalance)", ratio)
	}
}

func TestInterferenceCouplesStages(t *testing.T) {
	// With noise off, pricing the same batch twice is deterministic.
	exec, gen := newTestExec(t)
	warm(exec, gen, 10000)
	// One throwaway batch warms the simulated CPU cache so the comparison
	// below is steady-state vs steady-state.
	exec.ExecuteBatch(&pipeline.Batch{Queries: gen.Batch(8000), Config: pipeline.MegaKV()})
	q := gen.Batch(8000)
	b1 := &pipeline.Batch{Queries: q, Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b1)
	b2 := &pipeline.Batch{Queries: q, Config: pipeline.MegaKV()}
	exec.ExecuteBatch(b2)
	// Times differ slightly because store/cache state evolves, but stay close.
	r := float64(b2.Times.Tmax) / float64(b1.Times.Tmax)
	if r < 0.5 || r > 2.0 {
		t.Fatalf("pricing unstable across identical batches: %v vs %v", b1.Times.Tmax, b2.Times.Tmax)
	}
}

func TestPriceRespectsInterval(t *testing.T) {
	// Bigger batches take proportionally longer (sanity for the feedback
	// controller's assumption).
	exec, gen := newTestExec(t)
	warm(exec, gen, 10000)
	small := &pipeline.Batch{Queries: gen.Batch(2000), Config: pipeline.MegaKV()}
	exec.ExecuteBatch(small)
	big := &pipeline.Batch{Queries: gen.Batch(8000), Config: pipeline.MegaKV()}
	exec.ExecuteBatch(big)
	if big.Times.Tmax <= small.Times.Tmax {
		t.Fatal("4x batch should take longer")
	}
	if big.Times.Tmax > 10*small.Times.Tmax {
		t.Fatalf("scaling wildly superlinear: %v vs %v", big.Times.Tmax, small.Times.Tmax)
	}
	_ = time.Microsecond
}
