// Package dido is a reproduction of "DIDO: Dynamic Pipelines for In-Memory
// Key-Value Stores on Coupled CPU-GPU Architectures" (Zhang, Hu, He, Hua —
// ICDE 2017).
//
// The package exposes two top-level facilities:
//
//   - Store: a real, embeddable, concurrent in-memory key-value store built
//     on the paper's substrate (cuckoo-hash index with short signatures,
//     slab arena with CLOCK eviction). Serve makes it a UDP server speaking
//     the batched binary protocol; Client talks to one.
//
//   - Sim: the full DIDO system — eight-task pipeline, workload profiler,
//     APU-aware cost model, dynamic pipeline partitioning, flexible index
//     operation assignment, work stealing — running on a calibrated
//     simulation of the AMD Kaveri APU (this machine has no such chip; see
//     DESIGN.md for the substitution argument). Experiments reproduces every
//     figure of the paper's evaluation.
//
// Quick start:
//
//	st := dido.NewStore(dido.StoreConfig{MemoryBytes: 64 << 20})
//	st.Set([]byte("user:42"), []byte(`{"name":"ada"}`))
//	v, ok := st.Get([]byte("user:42"))
//
// Simulation:
//
//	sys := dido.NewSim(dido.SimOptions{MemoryBytes: 32 << 20})
//	res := dido.RunWorkload(sys, "K16-G95-S", 50)
//	fmt.Printf("%.2f MOPS at %v avg latency\n", res.ThroughputMOPS, res.AvgLatency)
package dido

import (
	idido "repro/internal/dido"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// SimOptions configures a simulated DIDO system. It is an alias of the
// internal options type; construct it with composite literals and the
// helpers below.
type SimOptions = idido.Options

// SimSystem is a runnable simulated system (DIDO or a pinned baseline).
type SimSystem = idido.System

// SimResult is the aggregate outcome of a simulated run.
type SimResult = pipeline.Result

// PipelineConfig is one pipeline partitioning scheme.
type PipelineConfig = pipeline.Config

// DefaultSimOptions returns the paper's evaluation setup at the given arena
// size: Kaveri APU, kernel networking, 1000 µs latency budget.
func DefaultSimOptions(memBytes int64) SimOptions {
	return idido.DefaultOptions(memBytes)
}

// NewSim builds a simulated DIDO system.
func NewSim(opts SimOptions) *SimSystem {
	return idido.New(opts)
}

// MegaKVPipeline returns the baseline's static pipeline configuration
// ([RV,PP,MM]CPU → [IN]GPU → [KC,RD,WR,SD]CPU).
func MegaKVPipeline() PipelineConfig {
	return pipeline.MegaKV()
}

// Workloads returns the names of the paper's 24 standard workloads
// (e.g. "K16-G95-S": 16-byte keys, 95% GET, skewed popularity).
func Workloads() []string {
	specs := workload.StandardSpecs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// RunWorkload warms sys with the named standard workload's population and
// runs nBatches batches, returning aggregate metrics. It panics on an
// unknown workload name (see Workloads).
func RunWorkload(sys *SimSystem, name string, nBatches int) SimResult {
	spec, ok := workload.SpecByName(name)
	if !ok {
		panic("dido: unknown workload " + name)
	}
	pop := workload.PopulationForMemory(spec, sys.Options().MemoryBytes)
	gen := workload.NewGenerator(spec, pop, int64(sys.Options().Seed)+42)
	sys.Warm(gen.KeyAt, pop, spec.ValueSize)
	return sys.Run(gen, nBatches)
}
