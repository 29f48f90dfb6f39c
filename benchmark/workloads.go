package main

import (
	"fmt"

	"repro/internal/workload"
)

// mix is one traffic phase: the share of GETs among point queries and the
// Zipf exponent of key popularity (0 = uniform).
type mix struct {
	getRatio float64
	skew     float64
}

// workloadSpec is one named traffic shape. The names are the contract later
// changes claim against; BENCHMARK.json lists the same six.
type workloadSpec struct {
	name string
	why  string

	resp             bool // TCP RESP2 instead of UDP DKV2
	keySize, valSize int
	memBytes         int64
	population       uint64

	// phases alternate every period queries; a single phase never switches.
	phases []mix
	period uint64
	// scanShare of the queries are SCAN(random population key, scanLimit).
	scanShare float64

	frameQueries int     // queries per frame (UDP) or commands per batch (RESP)
	window       int     // frames outstanding per connection
	openQPS      float64 // > 0: open loop at this fixed query rate

	adapt bool // server gets -adapt

	// Bands the scraped counters must fall in for the run to be correct.
	hitLo, hitHi     float64
	evictLo, evictHi float64
}

const (
	scanLimit = 16
	// frameWindow is the frames outstanding per connection: in the preload, in
	// the closed loops, and as the cap of the open loop. The server's pipeline sheds a frame with StatusBusy when four
	// sealed batches already queue ahead of its first stage; with two
	// connections of two frames there are never more than three other frames
	// in the server, so no frame is ever shed and "no operation fails" holds
	// by construction. Eight per connection, the figure first proposed, loses
	// 18% of udp-set-evict's queries to StatusBusy on the unchanged tree and
	// is also slower (626 against 773 kqops on udp-get-zipf).
	frameWindow = 2
)

func workloads() []workloadSpec {
	k16 := workload.DatasetK16
	k32 := workload.DatasetK32
	k8 := workload.DatasetK8
	evictSpec := workload.NewSpec(k32[0], k32[1], 0.5, 0)
	getZipf := workloadSpec{
		keySize: k16[0], valSize: k16[1],
		memBytes: 256 << 20, population: 1_000_000,
		phases:       []mix{{0.95, workload.ZipfYCSB}},
		frameQueries: 64, window: frameWindow,
		hitLo: 0.995, hitHi: 1,
	}
	ws := make([]workloadSpec, 0, 6)

	w := getZipf
	w.name = "udp-get-zipf"
	w.why = "K16/V64 95% GET zipf 0.99 over 1M keys, closed loop at saturation: the paper's headline mix; full batches through RV/PP, IN.S, KC+RD, WR/SD"
	ws = append(ws, w)

	w = getZipf
	w.name = "udp-get-paced"
	w.why = "same traffic, open loop at a fixed 200 kqps: throughput is pinned so only latency and CPU per query can move; exercises batch sealing"
	w.openQPS = 200_000
	ws = append(ws, w)

	w = workloadSpec{
		name:    "udp-set-evict",
		why:     "K32/V256 50% SET uniform over 2x what a 128 MiB arena holds, closed loop: nearly every SET evicts; MM, IN.I/IN.D and the ordered upsert dominate",
		keySize: k32[0], valSize: k32[1],
		memBytes:     128 << 20,
		population:   2 * workload.PopulationForMemory(evictSpec, 128<<20),
		phases:       []mix{{0.5, 0}},
		frameQueries: 64, window: frameWindow,
		// A SET of a resident key (half of them) frees the chunk it replaces,
		// so the next SET of an absent key finds it free: evictions settle at
		// one per two SETs, not one per SET.
		hitLo: 0.35, hitHi: 0.65, evictLo: 0.35, evictHi: 0.65,
	}
	ws = append(ws, w)

	w = getZipf
	w.name = "udp-scan-mix"
	w.why = "udp-get-zipf with 12.5% of queries replaced by SCAN(limit 16): the only workload that reads the ordered index; SC is about half the time"
	w.scanShare = 0.125
	ws = append(ws, w)

	w = workloadSpec{
		name:    "resp-get-pipe",
		why:     "TCP RESP2, K8/V8 GET-only uniform over 1M keys in 1024-command pipelined batches (Garnet resp-bench shape): RESP parse, run sealing, reply staging",
		resp:    true,
		keySize: k8[0], valSize: k8[1],
		// A million keys, not resp-bench's larger database: loading two million
		// through the socket takes 11 s of every run, and with a heap that size
		// the server collects once or twice in 8 s, which makes throughput a
		// matter of where the window falls.
		memBytes: 256 << 20, population: 1_000_000,
		phases: []mix{{1, 0}},
		// 1024 commands, not resp-bench's 4096: the front end seals a frame
		// per 256 commands (and at every read boundary) and sheds with -BUSY
		// past 16 frames in flight on a connection, so a 4096-command batch
		// is refused in part on the unchanged tree.
		frameQueries: 1024, window: 1,
		hitLo: 0.995, hitHi: 1,
	}
	ws = append(ws, w)

	w = getZipf
	w.name = "udp-shift-adapt"
	w.why = "server runs -adapt; traffic alternates every 1M queries between K16-G95-S and K16-G50-U over 250k keys: the only workload where the cost model profiles and replans"
	w.phases = []mix{{0.95, workload.ZipfYCSB}, {0.5, 0}}
	// At the 50 kqops the adapting server reaches today a run issues 450k
	// queries and stays in the first phase, the mix of udp-get-zipf, which is
	// what makes the two comparable; the shift comes into the run once -adapt
	// is within a factor of seven of static.
	w.period = 1_000_000
	w.adapt = true
	// The first 250k of udp-get-zipf's keys in a 64 MiB arena: with -adapt the
	// server polls its population by scanning the index, and loading the full
	// million keys takes 32 s, which the benchmark's time cap cannot afford.
	w.population, w.memBytes = 250_000, 64<<20
	ws = append(ws, w)
	return ws
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
