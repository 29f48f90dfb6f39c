package dido

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStatsDuringServing hammers Stats() (and the pipeline stats accessors)
// from several goroutines while the server is actively serving. Run under
// -race this pins that snapshotting is safe against concurrent counter
// updates; it also checks the documented per-field monotonicity (Served
// never goes backwards across snapshots).
func TestStatsDuringServing(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
		srv := NewServerOpts(st, ServerOptions{Pipeline: po})
		addr, errc := startServer(t, srv)
		defer srv.Close()

		var stop atomic.Bool
		var wg sync.WaitGroup

		// Stats readers.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lastServed uint64
				for !stop.Load() {
					ss := srv.Stats()
					if ss.Served < lastServed {
						t.Errorf("Served went backwards: %d → %d", lastServed, ss.Served)
						return
					}
					lastServed = ss.Served
					srv.PipelineStats()
					srv.PipelineStageQuantiles(0.5, 0.99)
					srv.PipelineReplans()
				}
			}()
		}

		// Traffic.
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 64; i++ {
			key := []byte(fmt.Sprintf("s%d", i%32))
			if i%4 == 0 {
				if err := c.Set(key, []byte("v")); err != nil {
					t.Fatal(err)
				}
			} else if _, _, err := c.Get(key); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		wg.Wait()

		if ss := srv.Stats(); ss.Served == 0 {
			t.Fatalf("no queries served: %+v", ss)
		}
		srv.Close()
		waitServe(t, errc)
	})
}

// parseExposition parses Prometheus text format into sample name (with
// labels) → value. Comment lines are skipped.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// dumpToMetricName maps each key of the ServerStats dump line to its
// /metrics sample name. Adding a ServerStats field means extending both
// renderers and this table — the parity test below fails otherwise.
var dumpToMetricName = map[string]string{
	"served":      "dido_served_queries_total",
	"frames":      "dido_frames_total",
	"shed":        "dido_shed_frames_total",
	"replayed":    "dido_replayed_frames_total",
	"dup-dropped": "dido_dup_dropped_frames_total",
	"malformed":   "dido_malformed_frames_total",
	"panics":      "dido_panics_total",
	"conns-shed":  "dido_shed_conns_total",
	"inflight":    "dido_inflight_frames",
}

// TestStatsDumpMetricsParity pins that the human dump line and the Prometheus
// exposition render identical values when fed the same ServerStats snapshot —
// the two surfaces cannot drift apart.
func TestStatsDumpMetricsParity(t *testing.T) {
	ss := ServerStats{
		Served: 101, Frames: 23, Shed: 7, Replayed: 5,
		DupDropped: 3, Malformed: 2, Panics: 1, ConnsShed: 6, InFlight: 4,
	}
	w := obs.NewMetricsWriter()
	writeServerMetrics(w, ss)
	metrics := parseExposition(t, w.String())

	dumped := 0
	for _, field := range strings.Fields(ss.String()) {
		k, vs, ok := strings.Cut(field, "=")
		if !ok {
			t.Fatalf("dump field %q not key=value", field)
		}
		name, ok := dumpToMetricName[k]
		if !ok {
			t.Fatalf("dump key %q has no /metrics mapping", k)
		}
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			t.Fatalf("dump value %q: %v", field, err)
		}
		mv, ok := metrics[name]
		if !ok {
			t.Fatalf("metric %s missing from exposition:\n%s", name, w.String())
		}
		if mv != v {
			t.Fatalf("%s: dump says %v, /metrics says %v", k, v, mv)
		}
		dumped++
	}
	if dumped != len(dumpToMetricName) {
		t.Fatalf("dump line has %d fields, mapping table has %d", dumped, len(dumpToMetricName))
	}
}

// TestStatsDumpMetricsParityLive repeats the parity check against a serving
// server: one Stats() snapshot rendered through both surfaces mid-traffic.
func TestStatsDumpMetricsParityLive(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv := NewServerOpts(st, ServerOptions{})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 32; i++ {
		if err := c.Set([]byte(fmt.Sprintf("p%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	ss := srv.Stats()
	w := obs.NewMetricsWriter()
	writeServerMetrics(w, ss)
	metrics := parseExposition(t, w.String())
	for _, field := range strings.Fields(ss.String()) {
		k, vs, _ := strings.Cut(field, "=")
		v, _ := strconv.ParseFloat(vs, 64)
		if mv := metrics[dumpToMetricName[k]]; mv != v {
			t.Fatalf("%s: dump %v, /metrics %v (same snapshot)", k, v, mv)
		}
	}
	if ss.Served == 0 {
		t.Fatal("no traffic reached the snapshot")
	}
	srv.Close()
	waitServe(t, errc)
}

// TestCollectMetricsNames pins the full metric-name surface of a pipelined
// adaptive server + store — renames or removals break dashboards, so they
// must be deliberate. The series of deleted mechanisms (live work stealing,
// the hot-key table, the wide/scalar read split) and /config's work_stealing
// field must stay gone.
func TestCollectMetricsNames(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv := NewServerOpts(st, ServerOptions{
		Pipeline: &PipelineOptions{BatchInterval: 200 * time.Microsecond, Adapt: true},
	})
	addr, errc := startServer(t, srv)
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	w := obs.NewMetricsWriter()
	srv.CollectMetrics(w)
	st.CollectMetrics(w)
	got := w.String()
	for _, name := range []string{
		"dido_served_queries_total", "dido_frames_total", "dido_shed_frames_total",
		"dido_replayed_frames_total", "dido_dup_dropped_frames_total",
		"dido_malformed_frames_total", "dido_panics_total", "dido_shed_conns_total",
		"dido_inflight_frames",
		`dido_frontend_frames_total{frontend="udp"}`,
		`dido_frontend_malformed_total{frontend="udp"}`,
		`dido_frontend_bytes_in_total{frontend="udp"}`,
		`dido_frontend_bytes_out_total{frontend="udp"}`,
		`dido_frontend_conns_accepted_total{frontend="udp"}`,
		`dido_frontend_conns_shed_total{frontend="udp"}`,
		`dido_frontend_conns_active{frontend="udp"}`,
		`dido_frontend_send_errors_total{frontend="udp"}`,
		`dido_frontend_queues{frontend="udp"}`,
		"dido_pipeline_batches_total", "dido_pipeline_queries_total",
		"dido_pipeline_reconfigs_total",
		"dido_pipeline_submit_shed_total", "dido_pipeline_panics_total",
		"dido_pipeline_batch_target", "dido_pipeline_replans_total",
		"dido_planner_error_ratio",
		`dido_pipeline_stage_micros{stage="1",quantile="0.5"}`,
		`dido_pipeline_stage_micros{stage="3",quantile="0.999"}`,
		"dido_store_gets_total", "dido_store_sets_total", "dido_store_deletes_total",
		"dido_store_hits_total", "dido_store_misses_total", "dido_store_evictions_total",
		"dido_store_evict_scan_total",
		"dido_scan_requests_total", "dido_scan_entries_total",
		"dido_scan_bytes_total", "dido_scan_fallbacks_total",
		"dido_store_live_objects", "dido_store_ordered_keys",
		"dido_store_ordered_splits_total", "dido_store_ordered_merges_total",
		"dido_store_ordered_maintained_shards", "dido_store_ordered_drops_total",
		"dido_store_ordered_rebuilds_total", "dido_store_ordered_build_seconds_total",
		"dido_store_index_load_factor",
	} {
		if !strings.Contains(got, name) {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	for _, name := range []string{
		"dido_pipeline_wide_batches_total", "dido_pipeline_steal_batches_total",
		"dido_pipeline_stolen_chunks_total", "dido_pipeline_stolen_queries_total",
		"dido_store_hot_hits_total",
	} {
		if strings.Contains(got, name) {
			t.Errorf("removed metric %s is still exported", name)
		}
	}
	if view, err := json.Marshal(srv.ConfigView()); err != nil || strings.Contains(string(view), "work_stealing") {
		t.Errorf("/config view %s (err %v) still carries work_stealing", view, err)
	}
	srv.Close()
	waitServe(t, errc)
}
