package bench

import (
	"time"

	"repro/internal/dido"
	"repro/internal/pipeline"
	"repro/internal/task"
	"repro/internal/workload"
)

// Fig9 reproduces the cost-model error rate: for every one of the 24
// workloads, run DIDO and compare its measured throughput against the cost
// model's prediction for the configuration it chose. Error rate =
// (T_DIDO − T_Model)/T_DIDO (paper: max 14.2%, average |error| 7.7%).
func Fig9(sc Scale) []*Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Cost model error rate per workload (%)",
		Columns: []string{"ErrorPct"},
		Notes:   []string{"paper: max 14.2%, average 7.7%"},
	}
	for _, name := range sortedSpecNames() {
		spec, _ := workload.SpecByName(name)
		sys := dido.New(buildOpts(sc, time.Millisecond))
		gen := prepare(sys, spec, sc)
		res := measure(sys, gen, sc)

		// Predict throughput for the configuration DIDO settled on, from
		// the planner's own profile view.
		cfg := sys.CurrentConfig()
		prof := lastProfile(sys, gen)
		pred := sys.Planner.EvaluateConfig(cfg, prof)
		// Compare steady-state rates: the prediction is N/Tmax (Eq 4), so the
		// measurement is the realized batch size over the realized bottleneck
		// stage time — free of pipeline-fill amortization over a short run.
		bottleneck := res.StageMean[0]
		for _, d := range res.StageMean {
			if d > bottleneck {
				bottleneck = d
			}
		}
		if bottleneck <= 0 || res.AvgBatch <= 0 {
			continue
		}
		measured := res.AvgBatch / bottleneck.Seconds()
		errPct := (measured - pred.ThroughputOPS) / measured * 100
		t.Add(name, errPct)
	}
	var sumAbs, maxAbs float64
	for _, r := range t.Rows {
		a := abs(r.Values[0])
		sumAbs += a
		if a > maxAbs {
			maxAbs = a
		}
	}
	if len(t.Rows) > 0 {
		t.Notes = append(t.Notes,
			"measured mean |error| = "+fmtF(sumAbs/float64(len(t.Rows)))+"%, max |error| = "+fmtF(maxAbs)+"%")
	}
	return []*Table{t}
}

// fig10Workloads are the seven workloads where the paper's DIDO picked a
// different plan than the ground-truth optimum (§V-B).
func fig10Workloads() []string {
	return []string{
		"K16-G50-U", "K32-G95-U", "K32-G100-S", "K32-G50-S",
		"K128-G95-U", "K128-G95-S", "K128-G50-S",
	}
}

// Fig10 compares DIDO's throughput with the ground-truth best and worst
// configurations found by exhaustively *running* a pruned configuration space
// (paper: optimal configs average only 6.6% above DIDO; a poor config can be
// an order of magnitude slower).
func Fig10(sc Scale) []*Table {
	t := &Table{
		ID:      "fig10",
		Title:   "DIDO vs optimal/worst configuration (normalized to DIDO)",
		Columns: []string{"DIDO", "Best", "Worst"},
		Notes: []string{
			"paper: optimal ≈1.066× DIDO on average; worst configs can be ~10× slower",
			"ground truth sweep uses the pruned config space (work stealing off, split=2) for tractability",
		},
	}
	probe := sc
	probe.Batches = maxInt(6, sc.Batches/4)
	probe.WarmBatches = 2
	for _, name := range fig10Workloads() {
		spec, _ := workload.SpecByName(name)

		sys := dido.New(buildOpts(sc, time.Millisecond))
		gen := prepare(sys, spec, sc)
		didoRes := measure(sys, gen, sc)
		if didoRes.ThroughputMOPS <= 0 {
			continue
		}

		best, worst := didoRes.ThroughputMOPS, didoRes.ThroughputMOPS
		for _, cfg := range prunedConfigs() {
			cfg := cfg
			opts := buildOpts(probe, time.Millisecond)
			opts.StaticConfig = &cfg
			res := runWorkload(opts, dido.New, spec, probe)
			if res.ThroughputMOPS <= 0 {
				continue
			}
			if res.ThroughputMOPS > best {
				best = res.ThroughputMOPS
			}
			if res.ThroughputMOPS < worst {
				worst = res.ThroughputMOPS
			}
		}
		t.Add(name, 1.0, best/didoRes.ThroughputMOPS, worst/didoRes.ThroughputMOPS)
	}
	return []*Table{t}
}

// prunedConfigs is the ground-truth sweep space for Fig 10: every pipeline
// shape and index assignment at the balanced core split.
func prunedConfigs() []pipeline.Config {
	var out []pipeline.Config
	for _, c := range pipeline.Enumerate(4) {
		if c.GPUDepth > 0 && c.CPUCoresPre != 2 {
			continue
		}
		out = append(out, c)
	}
	return out
}

// lastProfile re-derives the planner-facing profile from a fresh batch so the
// prediction uses the same inputs the adaptation loop saw.
func lastProfile(sys *dido.System, gen *workload.Generator) task.Profile {
	b := &pipeline.Batch{Queries: gen.Batch(4096), Config: sys.CurrentConfig()}
	sys.Exec.ExecuteBatch(b)
	prof := b.Profile
	prof.Skew = sys.Profiler.Skew()
	prof.CacheHitPortion = 0 // planner derives P analytically
	return prof
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fmtF(v float64) string {
	// two decimal places, zero-padded
	n := int(v*100 + 0.5)
	frac := n % 100
	pad := ""
	if frac < 10 {
		pad = "0"
	}
	return itoa(n/100) + "." + pad + itoa(frac)
}
