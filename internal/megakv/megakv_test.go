package megakv

import (
	"testing"

	"repro/internal/dido"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func opts() dido.Options {
	o := dido.DefaultOptions(16 << 20)
	o.Noise = 0
	o.IndexEntries = 200000
	return o
}

func TestCoupledIsStaticMegaKV(t *testing.T) {
	s := NewCoupled(opts())
	cfg := s.CurrentConfig()
	want := pipeline.MegaKV()
	if cfg != want {
		t.Fatalf("coupled config = %v, want %v", cfg, want)
	}
	if s.Exec.PCIe != nil {
		t.Fatal("coupled Mega-KV must not pay PCIe transfers")
	}
	spec, _ := workload.SpecByName("K16-G95-U")
	gen := workload.NewGenerator(spec, 30000, 5)
	s.Warm(gen.KeyAt, 20000, gen.Spec.ValueSize)
	res := s.Run(gen, 20)
	if res.ThroughputMOPS <= 0 {
		t.Fatal("no throughput")
	}
	if s.Replans() != 0 {
		t.Fatal("baseline must never adapt")
	}
}

func TestDiscreteUsesDiscretePlatformAndPCIe(t *testing.T) {
	s := NewDiscrete(opts())
	if s.Exec.PCIe == nil {
		t.Fatal("discrete Mega-KV must model PCIe")
	}
	if s.Exec.Model.Platform.CPU.Cores != 16 {
		t.Fatalf("discrete CPU cores = %d, want 16", s.Exec.Model.Platform.CPU.Cores)
	}
	if s.CurrentConfig().CPUCoresPre != 8 {
		t.Fatalf("discrete core split = %d", s.CurrentConfig().CPUCoresPre)
	}
}

func TestDiscreteOutperformsCoupledAbsolute(t *testing.T) {
	// Paper §V-E: Mega-KV (Discrete) crushes the APU systems on absolute
	// throughput (5.8-23.6x vs DIDO) thanks to vastly bigger hardware. With
	// DPDK-class networking our discrete baseline must at least clearly beat
	// the coupled one.
	spec, _ := workload.SpecByName("K8-G95-U")

	c := NewCoupled(opts())
	genC := workload.NewGenerator(spec, 50000, 5)
	c.Warm(genC.KeyAt, 30000, genC.Spec.ValueSize)
	resC := c.Run(genC, 25)

	oD := opts()
	oD.Net = netsim.DPDKNetworking()
	d := NewDiscrete(oD)
	genD := workload.NewGenerator(spec, 50000, 5)
	d.Warm(genD.KeyAt, 30000, genD.Spec.ValueSize)
	resD := d.Run(genD, 25)

	if resD.ThroughputMOPS <= resC.ThroughputMOPS*1.5 {
		t.Fatalf("discrete (%.2f MOPS) should clearly beat coupled (%.2f MOPS)",
			resD.ThroughputMOPS, resC.ThroughputMOPS)
	}
}

func TestPCIeCostVisible(t *testing.T) {
	// The same platform with and without PCIe: transfers must slow the GPU
	// stage.
	spec, _ := workload.SpecByName("K16-G95-U")

	a := NewCoupled(opts())
	genA := workload.NewGenerator(spec, 30000, 5)
	a.Warm(genA.KeyAt, 20000, genA.Spec.ValueSize)

	b := NewCoupled(opts())
	b.Exec.PCIe = dido.PCIeGen3x16()
	genB := workload.NewGenerator(spec, 30000, 5)
	b.Warm(genB.KeyAt, 20000, genB.Spec.ValueSize)

	resA := a.Run(genA, 20)
	resB := b.Run(genB, 20)
	if resB.StageMean[pipeline.StageGPU] <= resA.StageMean[pipeline.StageGPU] {
		t.Fatalf("PCIe should lengthen the GPU stage: %v vs %v",
			resB.StageMean[pipeline.StageGPU], resA.StageMean[pipeline.StageGPU])
	}
}
