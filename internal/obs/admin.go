package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// AdminOptions wires the observability sources into an Admin server. Every
// field is optional; missing sources simply leave their endpoint empty.
type AdminOptions struct {
	// Collect appends application metrics to the per-scrape writer; the
	// admin adds its own (trace / slow-log) metrics after it.
	Collect func(*MetricsWriter)
	// Config returns the /config payload, rendered as JSON per request so
	// it reflects the live (possibly re-planned) configuration.
	Config func() any
	// Trace is the controller decision ring dumped at /trace.
	Trace *TraceRing
	// SlowLog is dumped at /slowlog.
	SlowLog *SlowLog
}

// Admin is the HTTP observability endpoint: Prometheus metrics, live config,
// the reconfiguration trace, the slow-query log, and pprof. It serves
// read-only snapshots — scraping never blocks the serving path beyond the
// individual counter loads.
type Admin struct {
	opts AdminOptions
	srv  *http.Server

	mu sync.Mutex
	ln net.Listener
}

// NewAdmin returns an admin server over the given sources. Call Start to
// bind it.
func NewAdmin(opts AdminOptions) *Admin {
	a := &Admin{opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/config", a.handleConfig)
	mux.HandleFunc("/trace", a.handleTrace)
	mux.HandleFunc("/slowlog", a.handleSlowlog)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return a
}

// Start binds addr (e.g. ":9090", "127.0.0.1:0") and serves in a background
// goroutine until Close. The bind itself is synchronous so the caller can
// report the real address (Addr) immediately.
func (a *Admin) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	go a.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return nil
}

// Addr returns the bound address, or nil before Start.
func (a *Admin) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Close stops the listener. In-flight scrapes are abandoned (they are
// read-only snapshots; nothing needs draining).
func (a *Admin) Close() error {
	return a.srv.Close()
}

// handleMetrics renders the full exposition: application sources first, then
// the admin's own trace / slow-log meters.
func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	mw := NewMetricsWriter()
	if a.opts.Collect != nil {
		a.opts.Collect(mw)
	}
	if a.opts.Trace != nil {
		mw.Counter("dido_trace_decisions_total",
			"Controller decisions appended to the reconfiguration trace ring.",
			a.opts.Trace.Total())
	}
	if a.opts.SlowLog != nil {
		mw.Counter("dido_slowlog_over_threshold_total",
			"Frames whose serving latency exceeded the slow-query threshold.",
			a.opts.SlowLog.Seen())
		mw.Counter("dido_slowlog_recorded_total",
			"Over-threshold frames sampled into the slow-query ring.",
			a.opts.SlowLog.Recorded())
		mw.Gauge("dido_slowlog_threshold_micros",
			"Current slow-query latency threshold in microseconds.",
			float64(a.opts.SlowLog.Threshold())/float64(time.Microsecond))
		mw.Histogram("dido_slowlog_latency_micros",
			"Serving latency of recorded slow frames in microseconds.",
			"", a.opts.SlowLog.LatencyExport())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(mw.Bytes())
}

func (a *Admin) handleConfig(w http.ResponseWriter, _ *http.Request) {
	if a.opts.Config == nil {
		http.Error(w, "no config source", http.StatusNotFound)
		return
	}
	writeJSON(w, a.opts.Config())
}

// traceEventView is the /trace wire form: the raw structured event plus the
// paper's pipeline notation for both configs, so a human can read the
// old→new transition without decoding stage assignments by hand.
type traceEventView struct {
	TraceEvent
	OldNotation string `json:"old"`
	NewNotation string `json:"new"`
}

func (a *Admin) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if a.opts.Trace == nil {
		http.Error(w, "no trace ring", http.StatusNotFound)
		return
	}
	events := a.opts.Trace.Snapshot()
	views := make([]traceEventView, len(events))
	for i, e := range events {
		views[i] = traceEventView{
			TraceEvent:  e,
			OldNotation: e.Old.String(),
			NewNotation: e.New.String(),
		}
	}
	writeJSON(w, struct {
		Total  uint64           `json:"total"`
		Cap    int              `json:"cap"`
		Events []traceEventView `json:"events"`
	}{a.opts.Trace.Total(), a.opts.Trace.Cap(), views})
}

// slowEntryView is the /slowlog wire form.
type slowEntryView struct {
	When      time.Time `json:"when"`
	LatencyUS float64   `json:"latency_micros"`
	Queries   int       `json:"queries"`
	Op        uint8     `json:"op"`
	Key       string    `json:"key"`
	Truncated bool      `json:"truncated,omitempty"`
}

func (a *Admin) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	if a.opts.SlowLog == nil {
		http.Error(w, "no slow-query log", http.StatusNotFound)
		return
	}
	entries := a.opts.SlowLog.Snapshot()
	views := make([]slowEntryView, len(entries))
	for i := range entries {
		e := &entries[i]
		views[i] = slowEntryView{
			When:      e.When,
			LatencyUS: float64(e.Latency) / float64(time.Microsecond),
			Queries:   e.Queries,
			Op:        e.Op,
			Key:       string(e.Key()),
			Truncated: e.Truncated,
		}
	}
	writeJSON(w, struct {
		Seen        uint64          `json:"over_threshold_total"`
		Recorded    uint64          `json:"recorded_total"`
		ThresholdUS float64         `json:"threshold_micros"`
		Entries     []slowEntryView `json:"entries"`
	}{
		a.opts.SlowLog.Seen(),
		a.opts.SlowLog.Recorded(),
		float64(a.opts.SlowLog.Threshold()) / float64(time.Microsecond),
		views,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}
