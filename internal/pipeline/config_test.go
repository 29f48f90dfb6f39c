package pipeline

import (
	"strings"
	"testing"

	"repro/internal/apu"
	"repro/internal/task"
)

func TestStageString(t *testing.T) {
	if StageCPUPre.String() != "CPU-pre" || StageGPU.String() != "GPU" || StageCPUPost.String() != "CPU-post" {
		t.Fatal("stage strings wrong")
	}
	if Stage(9).String() != "Stage(9)" {
		t.Fatal("unknown stage string")
	}
	if StageGPU.Device() != apu.GPU || StageCPUPre.Device() != apu.CPU {
		t.Fatal("stage devices wrong")
	}
}

func TestMegaKVConfig(t *testing.T) {
	c := MegaKV()
	if err := c.Validate(4); err != nil {
		t.Fatal(err)
	}
	// The paper's static pipeline: [RV,PP,MM]CPU → [IN]GPU → [KC,RD,WR,SD]CPU.
	for _, id := range []task.ID{task.RV, task.PP, task.MM} {
		if c.StageOf(id) != StageCPUPre {
			t.Fatalf("%v should be CPU-pre", id)
		}
	}
	for _, id := range []task.ID{task.INSearch, task.INInsert, task.INDelete} {
		if c.StageOf(id) != StageGPU {
			t.Fatalf("%v should be on the GPU", id)
		}
	}
	for _, id := range []task.ID{task.KC, task.RD, task.WR, task.SD} {
		if c.StageOf(id) != StageCPUPost {
			t.Fatalf("%v should be CPU-post", id)
		}
	}
	if c.Stages() != 3 {
		t.Fatalf("stages = %d", c.Stages())
	}
	s := c.String()
	if !strings.Contains(s, "GPU") || !strings.Contains(s, "IN.S") {
		t.Fatalf("string = %q", s)
	}
}

func TestPureCPUConfig(t *testing.T) {
	c := Config{GPUDepth: 0}
	if err := c.Validate(4); err != nil {
		t.Fatal(err)
	}
	for _, id := range task.All() {
		if c.StageOf(id) != StageCPUPre {
			t.Fatalf("%v not on the single CPU stage", id)
		}
	}
	if c.Stages() != 1 {
		t.Fatalf("stages = %d", c.Stages())
	}
	if got := c.CoresFor(StageCPUPre, 4); got != 4 {
		t.Fatalf("single stage cores = %d", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{GPUDepth: -1},
		{GPUDepth: 5},
		{GPUDepth: 0, InsertOn: apu.GPU},
		{GPUDepth: 0, DeleteOn: apu.GPU},
		{GPUDepth: 0, ScanOn: apu.GPU},
		{GPUDepth: 1, CPUCoresPre: 0},
		{GPUDepth: 1, CPUCoresPre: 4},
	}
	for i, c := range bad {
		if err := c.Validate(4); err == nil {
			t.Fatalf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestGPUDepthMovesChain(t *testing.T) {
	c := Config{GPUDepth: 3, InsertOn: apu.CPU, DeleteOn: apu.CPU, CPUCoresPre: 2}
	// Depth 3: IN.S, KC, RD on GPU; WR stays on CPU-post.
	if c.StageOf(task.INSearch) != StageGPU || c.StageOf(task.KC) != StageGPU || c.StageOf(task.RD) != StageGPU {
		t.Fatal("depth-3 chain not on GPU")
	}
	if c.StageOf(task.WR) != StageCPUPost {
		t.Fatal("WR should remain on CPU at depth 3")
	}
	// CPU-assigned index updates land in stage 1 (paper: Insert/Delete to
	// CPUs for 95% GET workloads).
	if c.StageOf(task.INInsert) != StageCPUPre || c.StageOf(task.INDelete) != StageCPUPre {
		t.Fatal("CPU index updates should run in stage 1")
	}
}

func TestPlacementAffinity(t *testing.T) {
	// KC and RD co-located on the GPU: RD gets its affinity flag.
	c := Config{GPUDepth: 3, InsertOn: apu.CPU, DeleteOn: apu.CPU, CPUCoresPre: 2}
	pl := c.Placement(task.RD)
	if !pl.WithAffinityPartner || pl.OnCPU {
		t.Fatalf("RD placement = %+v", pl)
	}
	// WR on CPU while RD on GPU: separated.
	plWR := c.Placement(task.WR)
	if plWR.WithAffinityPartner || !plWR.OnCPU {
		t.Fatalf("WR placement = %+v", plWR)
	}
	// Mega-KV: KC,RD,WR all CPU-post — both affinities hold.
	m := MegaKV()
	if !m.Placement(task.RD).WithAffinityPartner || !m.Placement(task.WR).WithAffinityPartner {
		t.Fatal("Mega-KV co-located chain should have affinity")
	}
}

func TestCoresForSplit(t *testing.T) {
	c := Config{GPUDepth: 1, CPUCoresPre: 3, InsertOn: apu.GPU, DeleteOn: apu.GPU}
	if c.CoresFor(StageCPUPre, 4) != 3 || c.CoresFor(StageCPUPost, 4) != 1 {
		t.Fatal("core split wrong")
	}
	if c.CoresFor(StageGPU, 4) != 0 {
		t.Fatal("GPU stage should get no CPU cores")
	}
}

func TestTasksPartition(t *testing.T) {
	// Every task appears in exactly one stage, for every enumerated config.
	for _, c := range Enumerate(4) {
		count := map[task.ID]int{}
		for s := StageCPUPre; s < numStages; s++ {
			for _, id := range c.Tasks(s) {
				count[id]++
			}
		}
		for _, id := range task.All() {
			if count[id] != 1 {
				t.Fatalf("config %v: task %v in %d stages", c, id, count[id])
			}
		}
	}
}

func TestEnumerate(t *testing.T) {
	configs := Enumerate(4)
	// 1 pure CPU + depth(4) × insert(2) × delete(2) × scan(2) × split(3).
	want := 1 + 4*2*2*2*3
	if len(configs) != want {
		t.Fatalf("enumerated %d configs, want %d", len(configs), want)
	}
	seen := map[string]bool{}
	for _, c := range configs {
		if err := c.Validate(4); err != nil {
			t.Fatalf("invalid enumerated config %+v: %v", c, err)
		}
		if c.WorkStealing {
			t.Fatalf("enumerated a work-stealing config %v", c)
		}
		key := c.String()
		// String() omits the core split, so add it for uniqueness checking.
		key += string(rune('0' + c.CPUCoresPre))
		if seen[key] {
			t.Fatalf("duplicate config %v", key)
		}
		seen[key] = true
	}
	// Mega-KV's shape must be in the space.
	found := false
	m := MegaKV()
	for _, c := range configs {
		if c.GPUDepth == m.GPUDepth && c.InsertOn == m.InsertOn &&
			c.DeleteOn == m.DeleteOn && c.WorkStealing == m.WorkStealing &&
			c.CPUCoresPre == m.CPUCoresPre {
			found = true
		}
	}
	if !found {
		t.Fatal("Mega-KV config missing from enumeration")
	}
}

func TestScanPlacement(t *testing.T) {
	// CPU scans join stage 1; GPU scans the batch-parallel stage 2. The zero
	// value (apu.CPU) keeps every pre-SCAN config literal valid.
	cpu := Config{GPUDepth: 2, InsertOn: apu.CPU, DeleteOn: apu.CPU, CPUCoresPre: 2}
	if cpu.StageOf(task.SC) != StageCPUPre {
		t.Fatalf("CPU scan stage = %v", cpu.StageOf(task.SC))
	}
	gpu := cpu
	gpu.ScanOn = apu.GPU
	if gpu.StageOf(task.SC) != StageGPU {
		t.Fatalf("GPU scan stage = %v", gpu.StageOf(task.SC))
	}
	if (Config{GPUDepth: 0}).StageOf(task.SC) != StageCPUPre {
		t.Fatal("pure-CPU config must run SC on its single stage")
	}
	// The enumeration explores both placements, CPU first within each
	// otherwise-identical pair (scan-free ties keep pre-SCAN winners).
	var sawCPU, sawGPU bool
	for _, c := range Enumerate(4) {
		if c.GPUDepth == 0 {
			continue
		}
		if c.ScanOn == apu.GPU {
			sawGPU = true
			if !sawCPU {
				t.Fatal("GPU scan variant enumerated before any CPU variant")
			}
		} else {
			sawCPU = true
		}
	}
	if !sawCPU || !sawGPU {
		t.Fatal("enumeration must cover both scan placements")
	}
}

func TestDIDOPaperPipelines(t *testing.T) {
	// The two pipelines of Fig 20: [RV,PP,MM]CPU→[IN]GPU→[KC,RD,WR,SD]CPU
	// and [RV,PP,MM]CPU→[IN,KC,RD]GPU→[WR,SD]CPU must both be expressible.
	p1 := Config{GPUDepth: 1, InsertOn: apu.GPU, DeleteOn: apu.GPU, CPUCoresPre: 2}
	p2 := Config{GPUDepth: 3, InsertOn: apu.CPU, DeleteOn: apu.CPU, CPUCoresPre: 2}
	if p1.Validate(4) != nil || p2.Validate(4) != nil {
		t.Fatal("paper pipelines invalid")
	}
	if p2.StageOf(task.RD) != StageGPU || p2.StageOf(task.WR) != StageCPUPost {
		t.Fatal("pipeline 2 shape wrong")
	}
}
