package bench

import (
	"time"

	"repro/internal/apu"
	"repro/internal/dido"
	"repro/internal/megakv"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// fig16Workloads are the twelve workloads common to DIDO's and Mega-KV's
// published evaluations (§V-E): K8/K16/K128 × G100/G95 × U/S.
func fig16Workloads() []string {
	return []string{
		"K8-G100-U", "K8-G95-U", "K8-G100-S", "K8-G95-S",
		"K16-G100-U", "K16-G95-U", "K16-G100-S", "K16-G95-S",
		"K128-G100-U", "K128-G95-U", "K128-G100-S", "K128-G95-S",
	}
}

// fig16Nets mirrors the paper's methodology: 8-byte-key workloads include
// network I/O (Mega-KV (Discrete) with DPDK, the APU systems with kernel
// networking); all other workloads read packets from local memory.
func fig16Nets(spec workload.Spec) (apuNet, discreteNet netsim.CostProfile) {
	if spec.KeySize == 8 {
		return netsim.KernelNetworking(), netsim.DPDKNetworking()
	}
	return netsim.NoNetworking(), netsim.NoNetworking()
}

// fig16Run measures the three systems on one workload.
func fig16Run(spec workload.Spec, sc Scale) (discrete, coupled, didoRes dido.Result) {
	apuNet, dNet := fig16Nets(spec)

	oD := buildOpts(sc, time.Millisecond)
	oD.Net = dNet
	discrete = runWorkload(oD, megakv.NewDiscrete, spec, sc)

	oC := buildOpts(sc, time.Millisecond)
	oC.Net = apuNet
	coupled = runWorkload(oC, megakv.NewCoupled, spec, sc)

	oA := buildOpts(sc, time.Millisecond)
	oA.Net = apuNet
	didoRes = runWorkload(oA, dido.New, spec, sc)
	return discrete, coupled, didoRes
}

// Fig16 reproduces the absolute throughput comparison (paper: Mega-KV
// (Discrete) is 5.8-23.6× DIDO on raw MOPS thanks to far bigger hardware;
// DIDO still beats Mega-KV (Coupled) everywhere).
func Fig16(sc Scale) []*Table {
	t := &Table{
		ID:      "fig16",
		Title:   "Throughput (MOPS): Mega-KV (Discrete), Mega-KV (Coupled), DIDO",
		Columns: []string{"MegaKV_Discrete", "MegaKV_Coupled", "DIDO", "Discrete_over_DIDO"},
		Notes: []string{
			"paper: discrete wins 5.8-23.6x on absolute MOPS; the contribution is the coupled techniques, not absolute speed",
			"K8 rows include network I/O (DPDK for discrete, kernel for APU); other rows omit it, per §V-E",
		},
	}
	for _, name := range fig16Workloads() {
		spec, _ := workload.SpecByName(name)
		d, c, a := fig16Run(spec, sc)
		ratio := 0.0
		if a.ThroughputMOPS > 0 {
			ratio = d.ThroughputMOPS / a.ThroughputMOPS
		}
		t.Add(name, d.ThroughputMOPS, c.ThroughputMOPS, a.ThroughputMOPS, ratio)
	}
	return []*Table{t}
}

// Fig17 reproduces the price-performance comparison (paper: the discrete
// platform's processors cost 25× the APU, so DIDO wins by 1.1-4.3×).
func Fig17(sc Scale) []*Table {
	t := &Table{
		ID:      "fig17",
		Title:   "Price-performance ratio (KOPS/USD)",
		Columns: []string{"MegaKV_Discrete", "MegaKV_Coupled", "DIDO", "DIDO_over_Discrete"},
		Notes:   []string{"paper: DIDO beats Mega-KV (Discrete) by 1.1-4.3x on all 12 workloads"},
	}
	kaveri := apu.KaveriPlatform()
	discretePlat := apu.DiscretePlatform()
	for _, name := range fig16Workloads() {
		spec, _ := workload.SpecByName(name)
		d, c, a := fig16Run(spec, sc)
		dv := kops(d) / discretePlat.PriceUSD
		cv := kops(c) / kaveri.PriceUSD
		av := kops(a) / kaveri.PriceUSD
		ratio := 0.0
		if dv > 0 {
			ratio = av / dv
		}
		t.Add(name, dv, cv, av, ratio)
	}
	return []*Table{t}
}

// Fig18 reproduces the energy-efficiency comparison using the platforms'
// TDPs (paper: inconclusive — discrete wins on K8/K128, DIDO on K16).
func Fig18(sc Scale) []*Table {
	t := &Table{
		ID:      "fig18",
		Title:   "Energy efficiency (KOPS/Watt, TDP back-of-envelope)",
		Columns: []string{"MegaKV_Discrete", "MegaKV_Coupled", "DIDO"},
		Notes: []string{
			"paper: inconclusive overall — discrete ahead on 8B/128B keys, DIDO ahead on 16B keys",
			"TDPs: APU 95W; discrete 2x95W CPU + 2x250W GPU (§V-E)",
		},
	}
	kaveri := apu.KaveriPlatform()
	discretePlat := apu.DiscretePlatform()
	for _, name := range fig16Workloads() {
		spec, _ := workload.SpecByName(name)
		d, c, a := fig16Run(spec, sc)
		t.Add(name,
			kops(d)/discretePlat.TDPWatts,
			kops(c)/kaveri.TDPWatts,
			kops(a)/kaveri.TDPWatts)
	}
	return []*Table{t}
}

// kops converts a result to thousands of ops/sec.
func kops(r dido.Result) float64 { return r.ThroughputMOPS * 1000 }
