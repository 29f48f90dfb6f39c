package dido

import (
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func newSystem(t *testing.T, opts Options) *System {
	t.Helper()
	return New(opts)
}

func smallOpts() Options {
	o := DefaultOptions(16 << 20)
	o.Noise = 0 // determinism in tests
	o.IndexEntries = 200000
	return o
}

func warmFor(s *System, gen *workload.Generator, n uint64) {
	s.Warm(gen.KeyAt, n, gen.Spec.ValueSize)
}

func TestDefaults(t *testing.T) {
	s := New(Options{})
	if s.Store == nil || s.Planner == nil || s.Exec == nil {
		t.Fatal("incomplete system from zero options")
	}
	if s.CurrentConfig().GPUDepth != 1 {
		t.Fatal("initial config should be Mega-KV's shape")
	}
	if s.Options().LatencyBudget != 1000*time.Microsecond {
		t.Fatal("default latency budget should be 1000µs (paper §V-A)")
	}
}

func TestDIDOAdaptsAndBeatsStaticBaseline(t *testing.T) {
	// The headline result (Fig 11): DIDO's adapted pipeline outperforms the
	// static Mega-KV config on the same substrate, here on K16-G95-U.
	spec, _ := workload.SpecByName("K16-G95-U")

	mega := pipeline.MegaKV()
	optsA := smallOpts()
	optsA.StaticConfig = &mega
	baseline := newSystem(t, optsA)
	genA := workload.NewGenerator(spec, 50000, 11)
	warmFor(baseline, genA, 30000)
	resBase := baseline.Run(genA, 40)

	optsB := smallOpts()
	didoSys := newSystem(t, optsB)
	genB := workload.NewGenerator(spec, 50000, 11)
	warmFor(didoSys, genB, 30000)
	resDIDO := didoSys.Run(genB, 40)

	if resDIDO.ThroughputMOPS <= resBase.ThroughputMOPS {
		t.Fatalf("DIDO (%.3f MOPS) should beat Mega-KV (Coupled) (%.3f MOPS)",
			resDIDO.ThroughputMOPS, resBase.ThroughputMOPS)
	}
	if didoSys.Replans() == 0 {
		t.Fatal("DIDO never re-planned")
	}
	// The chosen config should differ from Mega-KV's (index ops on CPU at
	// 95% GET, per §V-C).
	cfg := didoSys.CurrentConfig()
	if cfg.InsertOn != apu.CPU || cfg.DeleteOn != apu.CPU {
		t.Fatalf("DIDO config %v should assign index updates to the CPU", cfg)
	}
}

func TestStaticConfigNeverReplans(t *testing.T) {
	spec, _ := workload.SpecByName("K16-G95-U")
	mega := pipeline.MegaKV()
	opts := smallOpts()
	opts.StaticConfig = &mega
	s := newSystem(t, opts)
	gen := workload.NewGenerator(spec, 50000, 11)
	warmFor(s, gen, 20000)
	s.Run(gen, 30)
	if s.Replans() != 0 {
		t.Fatalf("static system re-planned %d times", s.Replans())
	}
	if s.CurrentConfig() != mega {
		t.Fatal("static config drifted")
	}
}

func TestAdaptationStabilizes(t *testing.T) {
	// On a steady workload the 10% trigger should keep re-planning rare:
	// one initial plan plus possibly a couple as the store/cache warms.
	spec, _ := workload.SpecByName("K32-G95-U")
	opts := smallOpts()
	s := newSystem(t, opts)
	gen := workload.NewGenerator(spec, 40000, 13)
	warmFor(s, gen, 25000)
	s.Run(gen, 60)
	if s.Replans() > 10 {
		t.Fatalf("steady workload re-planned %d times; trigger too jumpy", s.Replans())
	}
}

func TestAblationFiltersRespected(t *testing.T) {
	spec, _ := workload.SpecByName("K8-G95-U")
	// Index assignment disabled: chosen config must keep index ops on GPU.
	opts := smallOpts()
	opts.DisableIndexAssignment = true
	s := newSystem(t, opts)
	gen := workload.NewGenerator(spec, 50000, 17)
	warmFor(s, gen, 30000)
	s.Run(gen, 20)
	cfg := s.CurrentConfig()
	if cfg.InsertOn != apu.GPU || cfg.DeleteOn != apu.GPU {
		t.Fatalf("ablation violated: %v", cfg)
	}

	// Dynamic pipeline disabled: shape pinned to Mega-KV's.
	opts2 := smallOpts()
	opts2.DisableDynamicPipeline = true
	s2 := newSystem(t, opts2)
	gen2 := workload.NewGenerator(spec, 50000, 17)
	warmFor(s2, gen2, 30000)
	s2.Run(gen2, 20)
	cfg2 := s2.CurrentConfig()
	if cfg2.GPUDepth != 1 || cfg2.CPUCoresPre != 2 {
		t.Fatalf("pipeline shape not pinned: %v", cfg2)
	}

	// Work stealing disabled.
	opts3 := smallOpts()
	opts3.DisableWorkStealing = true
	s3 := newSystem(t, opts3)
	gen3 := workload.NewGenerator(spec, 50000, 17)
	warmFor(s3, gen3, 30000)
	s3.Run(gen3, 20)
	if s3.CurrentConfig().WorkStealing {
		t.Fatal("work stealing not disabled")
	}
}

func TestDynamicWorkloadTriggersReplan(t *testing.T) {
	// Fig 20's mechanism: alternating K8-G50-U ↔ K16-G95-S re-plans at
	// phase boundaries.
	sa, _ := workload.SpecByName("K8-G50-U")
	sb, _ := workload.SpecByName("K16-G95-S")
	opts := smallOpts()
	s := newSystem(t, opts)
	genA := workload.NewGenerator(sa, 30000, 21)
	genB := workload.NewGenerator(sb, 30000, 22)
	warmFor(s, genA, 15000)
	warmFor(s, genB, 15000)
	alt := workload.NewAlternator(genA, genB, 40000)
	s.Run(alt, 60)
	if s.Replans() < 2 {
		t.Fatalf("alternating workload re-planned only %d times", s.Replans())
	}
}

func TestGetsActuallyServed(t *testing.T) {
	spec, _ := workload.SpecByName("K16-G95-U")
	s := newSystem(t, smallOpts())
	gen := workload.NewGenerator(spec, 20000, 31)
	warmFor(s, gen, 20000)
	res := s.Run(gen, 20)
	total := res.Hits + res.Misses
	if total == 0 {
		t.Fatal("no GETs processed")
	}
	hitRate := float64(res.Hits) / float64(total)
	if hitRate < 0.95 {
		t.Fatalf("hit rate = %.3f on a fully warmed population", hitRate)
	}
}

func TestNetworkProfilePropagates(t *testing.T) {
	opts := smallOpts()
	opts.Net = netsim.DPDKNetworking()
	s := newSystem(t, opts)
	if s.Exec.Net.Name != "dpdk" {
		t.Fatal("net profile not propagated")
	}
}

// TestAdaptationLayersStealing: the searched space holds no stealing configs
// (pipeline.Enumerate), so stealing reaches a simulated run only by the
// adaptation loop switching it on for the shape it chose — and not at all
// with DisableWorkStealing. On K8-G50-U the Eq 3 rebalance pays (Fig 15: 1.22×).
func TestAdaptationLayersStealing(t *testing.T) {
	spec, _ := workload.SpecByName("K8-G50-U")
	run := func(disable bool) pipeline.Config {
		opts := smallOpts()
		opts.DisableWorkStealing = disable
		s := newSystem(t, opts)
		gen := workload.NewGenerator(spec, 50000, 17)
		warmFor(s, gen, 30000)
		s.Run(gen, 20)
		if s.Replans() == 0 {
			t.Fatal("no replan")
		}
		return s.CurrentConfig()
	}
	ws := run(false)
	if !ws.WorkStealing {
		t.Fatalf("stealing not layered on the chosen shape: %v", ws)
	}
	shape := ws
	shape.WorkStealing = false
	found := false
	for _, c := range pipeline.Enumerate(4) {
		found = found || c == shape
	}
	if !found {
		t.Fatalf("installed shape %v is not in the searched space", shape)
	}
	if plain := run(true); plain.WorkStealing {
		t.Fatalf("DisableWorkStealing installed a stealing config: %v", plain)
	}
}
