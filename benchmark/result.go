package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The metric names BENCHMARK.json gates on or lists. A run must report
// exactly the first set untraced and exactly the second traced.
var (
	endToEndMetrics = []string{"kqops", "p50_us", "setup_s"}
	perLayerMetrics = []string{
		"proto.parse_ns_q", "proto.encode_ns_q", "udpbatch.recv_ns_dgram", "udpbatch.send_ns_dgram",
		"store.search_ns_q", "store.read_ns_q", "store.hot_hit_ratio",
		"store.set_ns_q", "slab.evictions_per_set", "cuckoo.kicks_per_insert", "ordered.upsert_ns",
		"store.scan_ns_entry", "store.scan_fallback_ratio",
		"pipeline.overhead_ns_q", "pipeline.q_per_batch", "pipeline.submit_shed",
		"costmodel.plan_us", "costmodel.replans", "costmodel.plan_err_mean",
		"wal.commit_ns_rec", "wal.bytes_per_user_byte",
		"server.unexplained_ns_q", "process.cpu_us_q", "process.rss_mb", "trace_overhead_ratio",
	}
)

// checkMetricSet fails a run that reports other metrics than its kind owes.
func (r *result) checkMetricSet() error {
	want := endToEndMetrics
	if r.Traced {
		want = perLayerMetrics
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%s reports %d metrics, BENCHMARK.json lists %d", r.Workload, len(r.Metrics), len(want))
	}
	for _, name := range want {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("%s does not report %s", r.Workload, name)
		}
	}
	return nil
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one band a run's counters must fall in.
type check struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	OK    bool    `json:"ok"`
}

// result is the record of one run of one workload.
type result struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Traced   bool      `json:"traced"`
	Host     *hostInfo `json:"host"`

	ServerArgs []string  `json:"server_args"`
	SetupS     float64   `json:"setup_s"`
	RampS      float64   `json:"ramp_s"`
	MeasuredS  float64   `json:"measured_s"`
	Samples    int       `json:"latency_samples"`
	StreamHash string    `json:"stream_hash"`
	SliceKqops []float64 `json:"slice_kqops,omitempty"` // throughput of each 50 ms of the measured phase, in time order

	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Failure   string `json:"first_failure,omitempty"`

	// Metrics are the gated figures (end to end, or per layer when traced);
	// Info are figures printed beside them that nothing is gated on.
	Metrics map[string]metric `json:"metrics"`
	Info    map[string]metric `json:"info"`
	Checks  []check           `json:"checks"`
}

func newResult(w *workloadSpec, seed int64, traced bool, h *hostInfo) *result {
	return &result{
		Workload: w.name, Seed: seed, Traced: traced, Host: h,
		Correct: true,
		Metrics: map[string]metric{}, Info: map[string]metric{},
	}
}

func (r *result) band(name string, v, lo, hi float64) {
	ok := v >= lo && v <= hi
	r.Checks = append(r.Checks, check{name, v, lo, hi, ok})
	if !ok {
		r.Correct = false
		if r.Failure == "" {
			r.Failure = fmt.Sprintf("%s = %.4g outside [%.4g, %.4g]", name, v, lo, hi)
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report prints every figure by name and unit, for people.
func (r *result) report(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s (%s)  seed %d  commit %s  %s  nproc %d  server cpus [%s]  generator cpus [%s]  pinned %v\n",
		r.Workload, kind, r.Seed, r.Host.Commit, r.Host.GoVersion, r.Host.NProc, r.Host.ServerCPUs, r.Host.GenCPUs, r.Host.Pinned)
	fmt.Fprintf(w, "   server args: %v\n", r.ServerArgs)
	fmt.Fprintf(w, "   setup %.2f s, ramp %.1f s, measured %.1f s, %d latency samples, stream hash %s\n",
		r.SetupS, r.RampS, r.MeasuredS, r.Samples, r.StreamHash)
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "   %-28s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "   (%s)%*s %14.4f %s\n", k, 26-len(k), "", r.Info[k].Value, r.Info[k].Unit)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "   check %-22s %.4f in [%.4g, %.4g]: %s\n", c.Name, c.Value, c.Lo, c.Hi, verdict)
	}
	fmt.Fprintf(w, "   operations attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
	if r.Failure != "" {
		fmt.Fprintf(w, " (%s)", r.Failure)
	}
	fmt.Fprintln(w)
}

// contractLine is the last line of standard output the driver parses.
func (r *result) contractLine() string {
	line, _ := json.Marshal(struct { // maps of plain structs: cannot fail
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(line)
}

// resultSet is what -all writes and -compare reads: every run of a session.
type resultSet struct {
	Runs []*result `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}
