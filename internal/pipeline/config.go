// Package pipeline is DIDO's query-processing pipeline as the server runs it:
// the plan vocabulary — pipeline configurations (which task runs on which
// processor, §III-B1), the batch that carries one, the ConfigProvider that
// picks it, and the feedback batch sizer — plus the live batched runner that
// executes batches on a real store (live.go). The simulated system's priced
// executor and clocked runner build on the same vocabulary in internal/dido.
//
// A configuration has up to three stages, mirroring every scheme the paper
// discusses:
//
//	stage 1 (CPU): RV, PP, MM  (+ Insert/Delete index ops and SC range
//	               scans when CPU-assigned)
//	stage 2 (GPU): IN.Search, then optionally KC, RD, WR ("GPU depth"),
//	               plus SC when GPU-assigned
//	stage 3 (CPU): the rest of KC, RD, WR, then SD
//
// GPU depth 0 collapses everything onto a single CPU stage. The batch is the
// unit of configuration: each Batch carries its Config so that in-flight
// batches complete under the scheme they started with (§III-B1).
package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/apu"
	"repro/internal/task"
)

// Stage identifies one pipeline stage.
type Stage int

// The three stages.
const (
	StageCPUPre Stage = iota
	StageGPU
	StageCPUPost
	numStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageCPUPre:
		return "CPU-pre"
	case StageGPU:
		return "GPU"
	case StageCPUPost:
		return "CPU-post"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Device returns which processor runs the stage.
func (s Stage) Device() apu.Kind {
	if s == StageGPU {
		return apu.GPU
	}
	return apu.CPU
}

// gpuChain is the orderable task segment that can move onto the GPU, in
// pipeline order. GPU depth d assigns gpuChain[:d].
var gpuChain = []task.ID{task.INSearch, task.KC, task.RD, task.WR}

// MaxGPUDepth is the longest GPU task segment.
const MaxGPUDepth = 4

// Config is one pipeline partitioning scheme plus index-operation assignment
// — everything the cost model searches over (§IV-B "finding the optimal
// pipeline configuration") — and the work-stealing switch the simulated
// system layers on the chosen scheme.
type Config struct {
	// GPUDepth is how many of [IN.S, KC, RD, WR] run on the GPU stage; 0
	// means a pure-CPU single-stage pipeline.
	GPUDepth int
	// InsertOn / DeleteOn assign the index update operations (§III-B2).
	// With GPUDepth 0 both are forced to the CPU.
	InsertOn, DeleteOn apu.Kind
	// ScanOn assigns the ordered-index range-scan task (SC). Scans are
	// sequential-bandwidth-bound (the opposite profile of the random-access
	// point probes), so the planner places them independently: on the CPU
	// they join stage 1, on the GPU the batch-parallel stage 2. With
	// GPUDepth 0 scans are forced to the CPU like the index ops.
	ScanOn apu.Kind
	// WorkStealing enables CPU↔GPU stealing on the bottleneck stage
	// (§III-B3). Enumerate never sets it: the simulated system switches it
	// on for the shape it chose (Fig 15), and the live runner executes a
	// stealing config as fixed assignment.
	WorkStealing bool
	// CPUCoresPre is how many CPU cores stage 1 gets; the remainder go to
	// stage 3. Ignored for GPUDepth 0 (single stage uses all cores).
	CPUCoresPre int
}

// Validate reports whether the config is well-formed for a CPU with nCores.
func (c Config) Validate(nCores int) error {
	if c.GPUDepth < 0 || c.GPUDepth > MaxGPUDepth {
		return fmt.Errorf("pipeline: GPU depth %d out of [0,%d]", c.GPUDepth, MaxGPUDepth)
	}
	if c.GPUDepth == 0 {
		if c.InsertOn == apu.GPU || c.DeleteOn == apu.GPU {
			return fmt.Errorf("pipeline: index ops on GPU require a GPU stage")
		}
		if c.ScanOn == apu.GPU {
			return fmt.Errorf("pipeline: scans on GPU require a GPU stage")
		}
		return nil
	}
	if c.CPUCoresPre < 1 || c.CPUCoresPre >= nCores {
		return fmt.Errorf("pipeline: CPU core split %d out of [1,%d]", c.CPUCoresPre, nCores-1)
	}
	return nil
}

// StageOf returns the stage that runs task id under this config.
func (c Config) StageOf(id task.ID) Stage {
	if c.GPUDepth == 0 {
		return StageCPUPre
	}
	switch id {
	case task.RV, task.PP, task.MM:
		return StageCPUPre
	case task.INInsert:
		if c.InsertOn == apu.GPU {
			return StageGPU
		}
		return StageCPUPre
	case task.INDelete:
		if c.DeleteOn == apu.GPU {
			return StageGPU
		}
		return StageCPUPre
	case task.SC:
		if c.ScanOn == apu.GPU {
			return StageGPU
		}
		return StageCPUPre
	case task.LG, task.SD:
		// LG (WAL group commit) is CPU work with a disk dependency; it runs
		// after WR, in the post stage with SD, regardless of GPU depth.
		return StageCPUPost
	}
	for i, t := range gpuChain {
		if t == id {
			if i < c.GPUDepth {
				return StageGPU
			}
			return StageCPUPost
		}
	}
	return StageCPUPost
}

// Tasks returns the tasks of stage s in pipeline order.
func (c Config) Tasks(s Stage) []task.ID {
	var out []task.ID
	for _, id := range task.All() {
		if c.StageOf(id) == s {
			out = append(out, id)
		}
	}
	return out
}

// Stages returns the number of non-empty stages.
func (c Config) Stages() int {
	n := 0
	for s := StageCPUPre; s < numStages; s++ {
		if len(c.Tasks(s)) > 0 {
			n++
		}
	}
	return n
}

// Placement returns the demand-model placement flags for task id: whether its
// affinity partner shares the stage, and whether it runs on the CPU.
func (c Config) Placement(id task.ID) task.Placement {
	st := c.StageOf(id)
	pl := task.Placement{OnCPU: st.Device() == apu.CPU}
	if partner, ok := task.AffinityPartner(id); ok {
		pl.WithAffinityPartner = c.StageOf(partner) == st
	}
	return pl
}

// CoresFor returns how many CPU cores stage s may use, given nCores total.
func (c Config) CoresFor(s Stage, nCores int) int {
	if s == StageGPU {
		return 0
	}
	if c.GPUDepth == 0 {
		return nCores
	}
	if s == StageCPUPre {
		return c.CPUCoresPre
	}
	return nCores - c.CPUCoresPre
}

// String renders the paper's pipeline notation, e.g.
// "[RV,PP,MM]CPU→[IN.S,KC,RD]GPU→[WR,SD]CPU ws". Index update placement is
// implicit in the stage listings.
func (c Config) String() string {
	var parts []string
	for s := StageCPUPre; s < numStages; s++ {
		tasks := c.Tasks(s)
		if len(tasks) == 0 {
			continue
		}
		names := make([]string, len(tasks))
		for i, t := range tasks {
			names[i] = t.String()
		}
		dev := "CPU"
		if s == StageGPU {
			dev = "GPU"
		}
		parts = append(parts, "["+strings.Join(names, ",")+"]"+dev)
	}
	s := strings.Join(parts, "→")
	if c.WorkStealing {
		s += " ws"
	}
	return s
}

// MegaKV returns Mega-KV's static pipeline (§II-B, Fig 3): network processing
// on the CPU, all three index operations on the GPU, read-and-send on the
// CPU, no work stealing. The 4 Kaveri cores split 2/2 between receiver and
// sender threads.
func MegaKV() Config {
	return Config{
		GPUDepth:     1,
		InsertOn:     apu.GPU,
		DeleteOn:     apu.GPU,
		WorkStealing: false,
		CPUCoresPre:  2,
	}
}

// Enumerate returns every valid configuration for a CPU with nCores,
// including the pure-CPU pipeline. This is the space the cost model searches
// exhaustively (§IV-B: "we search the entire configuration space"): pipeline
// shapes and index assignments. No enumerated config steals work; the
// simulated system layers stealing on the shape it chose (§V-D3).
func Enumerate(nCores int) []Config {
	var out []Config
	out = append(out, Config{GPUDepth: 0}) // pure CPU
	kinds := []apu.Kind{apu.CPU, apu.GPU}
	for depth := 1; depth <= MaxGPUDepth; depth++ {
		for _, ins := range kinds {
			for _, del := range kinds {
				// CPU first: at ScanRatio 0 the scan placement prices
				// identically, and Best keeps the earlier-enumerated config,
				// so scan-free workloads keep their pre-SCAN winners.
				for _, scan := range kinds {
					for split := 1; split < nCores; split++ {
						out = append(out, Config{
							GPUDepth:    depth,
							InsertOn:    ins,
							DeleteOn:    del,
							ScanOn:      scan,
							CPUCoresPre: split,
						})
					}
				}
			}
		}
	}
	return out
}
