// Adaptive: run the simulated DIDO system against a workload that shifts
// between the paper's K8-G50-U and K16-G95-S (the Fig 20 experiment) and
// print each re-planned pipeline configuration as the adaptation loop reacts.
package main

import (
	"fmt"
	"time"

	idido "repro/internal/dido"
	"repro/internal/workload"
)

func main() {
	opts := idido.DefaultOptions(16 << 20)
	opts.Seed = 7
	sys := idido.New(opts)

	specA, _ := workload.SpecByName("K8-G50-U")
	specB, _ := workload.SpecByName("K16-G95-S")
	genA := workload.NewGenerator(specA, 50000, 1)
	genB := workload.NewGenerator(specB, 50000, 2)
	sys.Warm(genA.KeyAt, 50000, specA.ValueSize)
	sys.Warm(genB.KeyAt, 50000, specB.ValueSize)

	fmt.Println("phase 1: write-heavy tiny objects (K8-G50-U)")
	res := sys.Run(genA, 30)
	report(res, sys)

	fmt.Println("\nphase 2: read-heavy skewed (K16-G95-S) — watch the pipeline change")
	res = sys.Run(genB, 30)
	report(res, sys)

	fmt.Println("\nphase 3: rapid alternation every ~3ms of work (Fig 20)")
	qps := res.ThroughputMOPS * 1e6
	phase := uint64(qps * 0.003)
	if phase < 4096 {
		phase = 4096
	}
	alt := workload.NewAlternator(genA, genB, phase)
	sys.Runner.TraceEvery = 300 * time.Microsecond
	res = sys.Run(alt, 60)
	for i, p := range res.Trace {
		if i%5 == 0 { // print a sparse trace
			fmt.Printf("  t=%6.2fms  %6.2f MOPS  %s\n",
				float64(p.At)/float64(time.Millisecond), p.Throughput/1e6, p.Config)
		}
	}
	fmt.Printf("total re-plans this run: %d\n", sys.Replans())
}

func report(res idido.Result, sys *idido.System) {
	fmt.Printf("  %.2f MOPS, latency %v, CPU %.0f%%, GPU %.0f%%\n",
		res.ThroughputMOPS, res.AvgLatency.Round(time.Microsecond),
		res.CPUUtilization*100, res.GPUUtilization*100)
	fmt.Printf("  pipeline: %s\n", sys.CurrentConfig())
}
