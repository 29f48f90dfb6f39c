package dido

import (
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/workload"
)

func newRunner(t *testing.T, specName string) (*Runner, *workload.Generator) {
	t.Helper()
	st := store.New(store.Config{MemoryBytes: 16 << 20, IndexEntries: 200000, Seed: 7})
	model := apu.NewModel(apu.KaveriPlatform(), 0.02, 1)
	exec := NewExecutor(model, st, netsim.KernelNetworking())
	spec, ok := workload.SpecByName(specName)
	if !ok {
		t.Fatalf("unknown spec %s", specName)
	}
	gen := workload.NewGenerator(spec, 50000, 11)
	warm(exec, gen, 20000)
	return &Runner{Exec: exec}, gen
}

func TestRunnerProducesThroughput(t *testing.T) {
	r, gen := newRunner(t, "K16-G95-U")
	provider := &pipeline.StaticProvider{Config: pipeline.MegaKV(), Interval: 300 * time.Microsecond, MinBatch: 256, MaxBatch: 1 << 15}
	res := r.Run(gen, provider, 30)
	if res.Batches != 30 || res.Queries == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.ThroughputMOPS <= 0 {
		t.Fatal("no throughput")
	}
	if res.Elapsed <= 0 || res.AvgLatency <= 0 {
		t.Fatal("no timing")
	}
	if res.CPUUtilization <= 0 || res.CPUUtilization > 1 {
		t.Fatalf("CPU utilization = %v", res.CPUUtilization)
	}
	if res.GPUUtilization <= 0 || res.GPUUtilization > 1 {
		t.Fatalf("GPU utilization = %v", res.GPUUtilization)
	}
}

func TestFeedbackControllerConverges(t *testing.T) {
	r, gen := newRunner(t, "K16-G95-U")
	interval := 300 * time.Microsecond
	provider := &pipeline.StaticProvider{Config: pipeline.MegaKV(), Interval: interval, MinBatch: 64, MaxBatch: 1 << 16}
	res := r.Run(gen, provider, 40)
	// After convergence the mean bottleneck time per batch should sit near
	// the interval (periodic scheduling, §IV-A).
	mean := max(res.StageMean[0], res.StageMean[1], res.StageMean[2])
	lo, hi := interval/2, 2*interval
	if mean < lo || mean > hi {
		t.Fatalf("converged Tmax %v not near interval %v", mean, interval)
	}
}

func TestMegaKVGPUUnderutilizedOnLargeKV(t *testing.T) {
	// Fig 5: Mega-KV's GPU utilization collapses for large key-value sizes.
	rSmall, genSmall := newRunner(t, "K8-G95-S")
	pSmall := &pipeline.StaticProvider{Config: pipeline.MegaKV(), Interval: 300 * time.Microsecond, MinBatch: 256, MaxBatch: 1 << 16}
	resSmall := rSmall.Run(genSmall, pSmall, 30)

	rBig, genBig := newRunner(t, "K128-G95-S")
	pBig := &pipeline.StaticProvider{Config: pipeline.MegaKV(), Interval: 300 * time.Microsecond, MinBatch: 256, MaxBatch: 1 << 16}
	resBig := rBig.Run(genBig, pBig, 30)

	if resBig.GPUUtilization >= resSmall.GPUUtilization {
		t.Fatalf("GPU utilization should drop with KV size: K8 %v vs K128 %v",
			resSmall.GPUUtilization, resBig.GPUUtilization)
	}
	if resBig.GPUUtilization > 0.4 {
		t.Fatalf("K128 GPU utilization = %v, expected severe underutilization", resBig.GPUUtilization)
	}
}

func TestTraceRecording(t *testing.T) {
	r, gen := newRunner(t, "K16-G95-U")
	r.TraceEvery = 500 * time.Microsecond
	provider := &pipeline.StaticProvider{Config: pipeline.MegaKV(), Interval: 300 * time.Microsecond, MinBatch: 256, MaxBatch: 1 << 15}
	res := r.Run(gen, provider, 40)
	if len(res.Trace) == 0 {
		t.Fatal("no trace points recorded")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].At <= res.Trace[i-1].At {
			t.Fatal("trace not monotonically timed")
		}
	}
}

func TestStageClock(t *testing.T) {
	const us = time.Microsecond
	type req struct{ earliest, service, wantDone time.Duration }
	for _, tc := range []struct {
		name      string
		reqs      []req
		wantTotal time.Duration
	}{
		{"fifo serialization", []req{{0, 10 * us, 10 * us}, {0, 5 * us, 15 * us}}, 15 * us},
		{"idle gap", []req{{0, us, us}, {10 * us, 2 * us, 12 * us}}, 3 * us},
		{"earliest start", []req{{5 * us, 3 * us, 8 * us}, {us, us, 9 * us}}, 4 * us},
		{"negative service clamped", []req{{0, -time.Second, 0}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c stageClock
			for i, r := range tc.reqs {
				if done := c.acquireAt(r.earliest, r.service); done != r.wantDone {
					t.Fatalf("request %d: done = %v, want %v", i, done, r.wantDone)
				}
			}
			if c.busyUntil != tc.reqs[len(tc.reqs)-1].wantDone {
				t.Fatalf("busyUntil = %v, want the last completion", c.busyUntil)
			}
			if c.busyTotal != tc.wantTotal {
				t.Fatalf("busyTotal = %v, want %v", c.busyTotal, tc.wantTotal)
			}
		})
	}
}

func TestRunnerSingleStageCPUOnly(t *testing.T) {
	r, gen := newRunner(t, "K16-G50-U")
	provider := &pipeline.StaticProvider{Config: pipeline.Config{GPUDepth: 0}, Interval: 300 * time.Microsecond, MinBatch: 128, MaxBatch: 1 << 14}
	res := r.Run(gen, provider, 20)
	if res.GPUUtilization != 0 {
		t.Fatalf("CPU-only run has GPU utilization %v", res.GPUUtilization)
	}
	if res.ThroughputMOPS <= 0 {
		t.Fatal("no throughput")
	}
}
