// Package megakv provides the Mega-KV baseline (Zhang et al., VLDB 2015 —
// reference [1] of the DIDO paper): the static three-stage pipeline
// [RV,PP,MM]CPU → [IN]GPU → [KC,RD,WR,SD]CPU with periodic GPU scheduling and
// all index operations on the GPU.
//
// Two variants:
//
//   - Coupled: Mega-KV ported to the APU (the paper's "Mega-KV (Coupled)"),
//     sharing memory with no PCIe transfers but keeping the static pipeline.
//   - Discrete: Mega-KV on its original discrete platform (2× E5-2650v2 +
//     2× GTX 780), paying PCIe transfers around the GPU stage.
//
// Both are the same engine as DIDO with adaptation disabled — so every
// DIDO-vs-Mega-KV comparison is apples-to-apples on identical substrate code.
package megakv

import (
	"repro/internal/apu"
	"repro/internal/dido"
	"repro/internal/pipeline"
)

// NewCoupled returns Mega-KV (Coupled): the static pipeline on the APU.
func NewCoupled(opts dido.Options) *dido.System {
	cfg := pipeline.MegaKV()
	opts.StaticConfig = &cfg
	if opts.Platform.CPU.Cores == 0 {
		opts.Platform = apu.KaveriPlatform()
	}
	return dido.New(opts)
}

// NewDiscrete returns Mega-KV (Discrete): the static pipeline on the
// dual-socket + dual-GPU platform, with PCIe transfer costs on the GPU
// stage.
func NewDiscrete(opts dido.Options) *dido.System {
	cfg := pipeline.MegaKV()
	opts.StaticConfig = &cfg
	opts.Platform = apu.DiscretePlatform()
	// The discrete CPUs have 16 cores; Mega-KV splits receivers/senders
	// roughly evenly.
	cfg.CPUCoresPre = 8
	opts.StaticConfig = &cfg
	sys := dido.New(opts)
	sys.Exec.PCIe = dido.PCIeGen3x16()
	return sys
}
