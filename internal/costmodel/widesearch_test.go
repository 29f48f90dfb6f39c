package costmodel

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/task"
)

// TestINSearchMLPGate: the batched-search term must be off by default (planner
// predictions unchanged) and must never touch other tasks or sub-threshold
// batch sizes.
func TestINSearchMLPGate(t *testing.T) {
	pl := newPlanner()
	if d := pl.inSearchMemDiv(task.INSearch, 4096); d != 1 {
		t.Fatalf("default planner divisor = %v, want 1 (term must be opt-in)", d)
	}
	pl.INSearchMLP = DefaultINSearchMLP
	if d := pl.inSearchMemDiv(task.KC, 4096); d != 1 {
		t.Fatalf("KC divisor = %v, want 1 (term is IN(Search)-only)", d)
	}
	if d := pl.inSearchMemDiv(task.INSearch, pipeline.DefaultWideMinGets-1); d != 1 {
		t.Fatalf("sub-threshold divisor = %v, want 1", d)
	}
	if d := pl.inSearchMemDiv(task.INSearch, pipeline.DefaultWideMinGets); d != 1 {
		t.Fatalf("divisor at threshold = %v, want 1 (ramp starts there)", d)
	}
	mid := pl.inSearchMemDiv(task.INSearch, 4*pipeline.DefaultWideMinGets)
	if mid <= 1 || mid >= DefaultINSearchMLP {
		t.Fatalf("mid-ramp divisor = %v, want in (1, %d)", mid, DefaultINSearchMLP)
	}
	full := pl.inSearchMemDiv(task.INSearch, 16*pipeline.DefaultWideMinGets)
	if full != DefaultINSearchMLP {
		t.Fatalf("full-ramp divisor = %v, want %d", full, DefaultINSearchMLP)
	}
	if d := pl.inSearchMemDiv(task.INSearch, 1<<20); d != DefaultINSearchMLP {
		t.Fatalf("huge-batch divisor = %v, want capped at %d", d, DefaultINSearchMLP)
	}
}

// TestINSearchMLPRaisesCPUSearchThroughput: with the term on, a GET-heavy
// workload's best plan must predict at least as much throughput as without it
// — the wide executor only removes modeled latency — and a CPU-search config
// specifically must get strictly faster at large batch sizes.
func TestINSearchMLPRaisesCPUSearchThroughput(t *testing.T) {
	prof := profileFor(16, 64, 0.95, 0.99)
	base := newPlanner()
	wide := newPlanner()
	wide.INSearchMLP = DefaultINSearchMLP

	cpuCfg := pipeline.Config{GPUDepth: 0} // IN(Search) on the CPU stage
	pBase := base.EvaluateConfig(cpuCfg, prof)
	pWide := wide.EvaluateConfig(cpuCfg, prof)
	if pWide.ThroughputOPS <= pBase.ThroughputOPS {
		t.Fatalf("CPU-search config: wide %v ops/s not above scalar %v ops/s",
			pWide.ThroughputOPS, pBase.ThroughputOPS)
	}

	bestBase, _ := base.Best(prof)
	bestWide, _ := wide.Best(prof)
	if bestWide.ThroughputOPS < bestBase.ThroughputOPS {
		t.Fatalf("best plan regressed: wide %v < scalar %v",
			bestWide.ThroughputOPS, bestBase.ThroughputOPS)
	}
}
