// Package bench regenerates every measured table and figure of the DIDO
// paper's evaluation (§V). Each experiment is a function returning a Table
// whose rows mirror the paper's series; cmd/dido-bench prints them and
// EXPERIMENTS.md records paper-vs-measured values.
//
// The experiments run against the simulated APU at a reduced memory scale
// (the shape of every result is scale-free; DESIGN.md §4 lists the expected
// shapes). Scale controls arena size and run length so the full suite
// finishes in minutes on a laptop.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/dido"
	"repro/internal/workload"
)

// Scale bounds experiment cost.
type Scale struct {
	// MemBytes is the key-value arena per system (the paper uses 1908 MB;
	// experiments shrink it — results are ratio-shaped, not absolute).
	MemBytes int64
	// Batches is the measured batch count per run.
	Batches int
	// WarmBatches run before measurement to reach steady state.
	WarmBatches int
	// MaxBatch clamps batch sizing.
	MaxBatch int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultScale is the standard experiment scale.
func DefaultScale() Scale {
	return Scale{
		MemBytes:    8 << 20,
		Batches:     30,
		WarmBatches: 6,
		MaxBatch:    1 << 15,
		Seed:        1,
	}
}

// QuickScale is a fast smoke-test scale for unit tests and -short runs.
func QuickScale() Scale {
	return Scale{
		MemBytes:    4 << 20,
		Batches:     10,
		WarmBatches: 3,
		MaxBatch:    1 << 13,
		Seed:        1,
	}
}

// Table is one reproduced figure or table.
type Table struct {
	ID      string // e.g. "fig11"
	Title   string
	Columns []string
	Rows    []Row
	// Notes records methodology details (scaling, substitutions).
	Notes []string
}

// Row is one labeled series point.
type Row struct {
	Label  string
	Values []float64
}

// Add appends a row.
func (t *Table) Add(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Mean returns the mean of column c across rows (NaN-free: rows lacking the
// column are skipped).
func (t *Table) Mean(c int) float64 {
	var sum float64
	var n int
	for _, r := range t.Rows {
		if c < len(r.Values) {
			sum += r.Values[c]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	labelW := 8
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%14.4g", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) []*Table
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig4", "Execution time of Mega-KV pipeline stages on the coupled architecture", Fig4},
		{"fig5", "GPU utilization of Mega-KV on the coupled architecture", Fig5},
		{"fig6", "Ratio of GPU execution time of index operations", Fig6},
		{"fig9", "Error rate of the cost model across the 24 workloads", Fig9},
		{"fig10", "DIDO vs the optimal configuration (7 mismatch workloads)", Fig10},
		{"fig11", "Throughput improvement of DIDO over Mega-KV (Coupled)", Fig11},
		{"fig12", "CPU and GPU utilization: DIDO vs Mega-KV (Coupled)", Fig12},
		{"fig13", "Speedup from flexible index operation assignment", Fig13},
		{"fig14", "Speedup from dynamic pipeline partitioning", Fig14},
		{"fig15", "Speedup from work stealing", Fig15},
		{"fig16", "Throughput: Mega-KV (Discrete/Coupled) vs DIDO", Fig16},
		{"fig17", "Price-performance ratio", Fig17},
		{"fig18", "Energy efficiency", Fig18},
		{"fig19", "DIDO improvement under different latency budgets", Fig19},
		{"fig20", "Throughput trace under a dynamically changing workload", Fig20},
		{"fig21", "Speedup vs workload alternation cycle", Fig21},
		// Design-choice ablations beyond the paper (DESIGN.md §5).
		{"abl-steal", "ABLATION: work-stealing chunk granularity", AblStealGranularity},
		{"abl-mugrid", "ABLATION: interference-table resolution", AblMuGrid},
		{"abl-cuckoo", "ABLATION: cuckoo insert cost vs load factor", AblCuckooProbes},
		{"abl-latency", "ABLATION: latency percentiles DIDO vs Mega-KV", AblLatencyPercentiles},
		{"abl-planner", "ABLATION: planner batch-solve accuracy", AblPlannerProbes},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared run helpers ----

// buildOpts returns DIDO options at the experiment scale. Device caches are
// scaled with the arena so that the cache:data ratio matches the paper's
// platform (4 MB L2 against a 1908 MB arena) — otherwise a shrunken arena
// would fit mostly in cache and erase the random-access bottleneck the whole
// evaluation is about.
func buildOpts(sc Scale, latency time.Duration) dido.Options {
	o := dido.DefaultOptions(sc.MemBytes)
	o.LatencyBudget = latency
	o.Seed = sc.Seed
	o.Noise = 0.03
	ratio := float64(sc.MemBytes) / float64(o.Platform.Memory.TotalBytes)
	scaleCache := func(b int64) int64 {
		s := int64(float64(b) * ratio)
		if s < 8<<10 {
			s = 8 << 10
		}
		return s
	}
	o.Platform.CPU.CacheBytes = scaleCache(o.Platform.CPU.CacheBytes)
	o.Platform.GPU.CacheBytes = scaleCache(o.Platform.GPU.CacheBytes)
	return o
}

// prepare builds a generator sized to the system's arena and warms the store
// to steady state (full arena, eviction active — §V-A stores as many objects
// as fit).
func prepare(sys *dido.System, spec workload.Spec, sc Scale) *workload.Generator {
	pop := workload.PopulationForMemory(spec, sc.MemBytes)
	gen := workload.NewGenerator(spec, pop, int64(sc.Seed)+42)
	sys.Warm(gen.KeyAt, pop, spec.ValueSize)
	sys.Planner.MaxBatch = sc.MaxBatch
	// Warm-up batches settle the feedback controller and the cache.
	if sc.WarmBatches > 0 {
		sys.Run(gen, sc.WarmBatches)
	}
	return gen
}

// measure runs the measured phase.
func measure(sys *dido.System, gen *workload.Generator, sc Scale) dido.Result {
	return sys.Run(gen, sc.Batches)
}

// runWorkload builds, warms and measures one system on one workload.
func runWorkload(opts dido.Options, build func(dido.Options) *dido.System, spec workload.Spec, sc Scale) dido.Result {
	sys := build(opts)
	gen := prepare(sys, spec, sc)
	return measure(sys, gen, sc)
}

// specsByNames resolves paper workload names, panicking on typos (these are
// compile-time constants in the experiment code).
func specsByNames(names ...string) []workload.Spec {
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.SpecByName(n)
		if !ok {
			panic("bench: unknown workload " + n)
		}
		out[i] = s
	}
	return out
}

// sortedSpecNames returns the 24 standard workloads' names in paper order.
func sortedSpecNames() []string {
	specs := workload.StandardSpecs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ensure deterministic map-free ordering helpers are available.
var _ = sort.Strings
