package dido

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// httpGet fetches one admin endpoint and returns status + body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminUnderChaos is the observability end-to-end: an adaptive server with the fault injector active and the full admin surface attached.
// While lossy traffic runs, /metrics, /config and /trace must respond;
// counters must be monotonic between scrapes; and after the dust settles the
// trace ring must have recorded exactly one decision per completed batch,
// including at least one replan with a sane installed config.
func TestAdminUnderChaos(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	ring := obs.NewTraceRing(0)
	slow := obs.NewSlowLog(0, 64, 1) // threshold 0: record every frame
	srv := NewServerOpts(st, ServerOptions{
		Pipeline: &PipelineOptions{
			BatchInterval: 200 * time.Microsecond,
			Adapt:         true,
			Trace:         ring,
		},
		SlowLog: slow,
		WrapConn: func(pc net.PacketConn) net.PacketConn {
			return faults.Wrap(pc, faults.Symmetric(42, faults.Profile{
				Drop: 0.05, Dup: 0.05, Reorder: 0.05, Corrupt: 0.05,
			}))
		},
	})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	admin := obs.NewAdmin(obs.AdminOptions{
		Collect: func(w *obs.MetricsWriter) {
			srv.CollectMetrics(w)
			st.CollectMetrics(w)
		},
		Config:  func() any { return srv.ConfigView() },
		Trace:   ring,
		SlowLog: slow,
	})
	if err := admin.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr().String()

	// Chaos traffic: several clients retrying through the lossy socket.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialOpts(addr, ClientOptions{Timeout: 250 * time.Millisecond, Seed: int64(g + 1)})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 60; i++ {
				key := []byte(fmt.Sprintf("c%d-%d", g, i%16))
				if i%3 == 0 {
					c.Set(key, []byte("chaos-value")) //nolint:errcheck // drops expected
				} else {
					c.Get(key) //nolint:errcheck
				}
			}
		}(g)
	}

	// First scrape mid-chaos.
	code, body1 := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d mid-chaos", code)
	}
	m1 := parseExposition(t, body1)

	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d mid-chaos", code)
	}
	if code, _ := httpGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof status %d mid-chaos", code)
	}
	code, cfgBody := httpGet(t, base+"/config")
	if code != http.StatusOK {
		t.Fatalf("/config status %d mid-chaos", code)
	}
	var cfg ServerConfigView
	if err := json.Unmarshal([]byte(cfgBody), &cfg); err != nil {
		t.Fatalf("/config not JSON: %v\n%s", err, cfgBody)
	}
	if !cfg.Pipeline.Adapt || cfg.Pipeline.Config == "" {
		t.Fatalf("/config = %+v, want an adaptive pipeline plan", cfg)
	}
	if code, _ := httpGet(t, base+"/trace"); code != http.StatusOK {
		t.Fatalf("/trace status %d mid-chaos", code)
	}
	if code, _ := httpGet(t, base+"/slowlog"); code != http.StatusOK {
		t.Fatalf("/slowlog status %d mid-chaos", code)
	}

	wg.Wait()

	// Second scrape: every *_total must be monotonic w.r.t. the first.
	code, body2 := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d after chaos", code)
	}
	m2 := parseExposition(t, body2)
	checked := 0
	for name, v1 := range m1 {
		if !strings.Contains(name, "_total") {
			continue
		}
		v2, ok := m2[name]
		if !ok {
			t.Errorf("counter %s vanished between scrapes", name)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %v → %v", name, v1, v2)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d *_total counters scraped — exposition looks truncated:\n%s", checked, body1)
	}
	if m2["dido_served_queries_total"] == 0 {
		t.Fatal("no queries served through the chaos")
	}

	// Drain, then audit the decision trace against the batch count.
	srv.Close()
	waitServe(t, errc)
	ps := srv.PipelineStats()
	if ps.Batches == 0 {
		t.Fatalf("pipeline stats = %+v", ps)
	}
	if got := ring.Total(); got != ps.Batches {
		t.Fatalf("trace recorded %d decisions for %d batches — the ring must capture every controller decision", got, ps.Batches)
	}
	events := ring.Snapshot()
	replans := 0
	for _, e := range events {
		if e.Replan {
			replans++
		}
		if e.NewTarget < 1 {
			t.Fatalf("decision installed batch target %d: %+v", e.NewTarget, e)
		}
		if e.New.GPUDepth < 0 || e.New.GPUDepth > pipeline.MaxGPUDepth {
			t.Fatalf("decision installed GPUDepth %d: %+v", e.New.GPUDepth, e)
		}
		if e.When.IsZero() {
			t.Fatalf("untimestamped decision: %+v", e)
		}
	}
	if replans == 0 {
		t.Fatal("no replan recorded — the first measured batch must replan")
	}

	// The slow-query log saw traffic (threshold 0 records everything).
	if slow.Seen() == 0 || slow.Recorded() == 0 {
		t.Fatalf("slow log empty: seen=%d recorded=%d", slow.Seen(), slow.Recorded())
	}
	if entries := slow.Snapshot(); len(entries) == 0 {
		t.Fatal("slow log ring empty")
	}

	// /trace after the fact decodes and carries the notation fields.
	_, traceBody := httpGet(t, base+"/trace")
	var tv struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Old string `json:"old"`
			New string `json:"new"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(traceBody), &tv); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if tv.Total != ps.Batches || len(tv.Events) == 0 {
		t.Fatalf("/trace total=%d events=%d, want total=%d", tv.Total, len(tv.Events), ps.Batches)
	}
	for _, e := range tv.Events {
		if e.New == "" {
			t.Fatal("/trace event missing config notation")
		}
	}
}

// TestSlowLogOnServingPaths pins that the pipeline's completion path feeds
// the slow-query log: with a zero threshold every completed frame must be
// observed.
func TestSlowLogOnServingPaths(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
		slow := obs.NewSlowLog(0, 16, 1)
		srv := NewServerOpts(st, ServerOptions{SlowLog: slow, Pipeline: po})
		addr, errc := startServer(t, srv)
		defer srv.Close()

		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const frames = 20
		for i := 0; i < frames; i++ {
			if err := c.Set([]byte(fmt.Sprintf("sl%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		waitServe(t, errc)

		if got := slow.Seen(); got != frames {
			t.Fatalf("slow log saw %d frames, want %d", got, frames)
		}
		e := slow.Snapshot()[0]
		if e.Latency <= 0 || e.Queries != 1 || e.Op != uint8(OpSet) {
			t.Fatalf("entry = %+v", e)
		}
		if !strings.HasPrefix(string(e.Key()), "sl") {
			t.Fatalf("key = %q", e.Key())
		}
	})
}

// TestSlowLogThresholdFilters: with an unreachable threshold nothing is
// recorded — the fast path really is taken.
func TestSlowLogThresholdFilters(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	slow := obs.NewSlowLog(time.Hour, 16, 1)
	srv := NewServerOpts(st, ServerOptions{SlowLog: slow})
	addr, errc := startServer(t, srv)
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		if err := c.Set([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	waitServe(t, errc)
	if slow.Seen() != 0 || slow.Recorded() != 0 {
		t.Fatalf("sub-threshold frames recorded: seen=%d recorded=%d", slow.Seen(), slow.Recorded())
	}
}
