// Package obs is the serving path's observability surface: a Prometheus
// text-exposition writer over the internal/stats primitives, a bounded
// reconfiguration trace ring fed by the cost-model controller, a sampled
// slow-query log with an allocation-free fast path, and the HTTP admin
// server that exposes all of it (/metrics, /config, /trace, /slowlog,
// /debug/pprof).
//
// The package is deliberately pull-based: nothing here sits on the serving
// hot path except the slow-query threshold compare and the per-batch trace
// append, both O(1) and allocation-free. Everything else is paid at scrape
// time.
package obs

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/stats"
)

// MetricsWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). It is not safe for concurrent use; the admin server
// builds a fresh writer per scrape.
//
// Name and label conventions (pinned by the golden test):
//
//   - every metric is prefixed "dido_"
//   - monotonic counters end in "_total"
//   - durations are exported in base units named into the metric
//     ("_micros", "_nanos") rather than converted, matching the paper's
//     microsecond-scale latency vocabulary used across the repo
//   - HELP/TYPE headers are emitted once per metric name, before its first
//     sample, regardless of how many label sets follow
type MetricsWriter struct {
	buf   bytes.Buffer
	typed map[string]bool
}

// NewMetricsWriter returns an empty writer.
func NewMetricsWriter() *MetricsWriter {
	return &MetricsWriter{typed: make(map[string]bool)}
}

// header emits the # HELP / # TYPE preamble once per metric name.
func (w *MetricsWriter) header(name, help, typ string) {
	if w.typed[name] {
		return
	}
	w.typed[name] = true
	fmt.Fprintf(&w.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// fmtFloat renders a sample value the way Prometheus expects (shortest
// round-trippable representation; +Inf/-Inf/NaN spelled out).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one unlabelled counter sample.
func (w *MetricsWriter) Counter(name, help string, v uint64) {
	w.header(name, help, "counter")
	fmt.Fprintf(&w.buf, "%s %d\n", name, v)
}

// CounterFloat emits one unlabelled counter sample with a fractional value,
// such as seconds spent.
func (w *MetricsWriter) CounterFloat(name, help string, v float64) {
	w.header(name, help, "counter")
	fmt.Fprintf(&w.buf, "%s %s\n", name, fmtFloat(v))
}

// CounterL emits one labelled counter sample. labels is the raw inner label
// list, e.g. `stage="1"`.
func (w *MetricsWriter) CounterL(name, help, labels string, v uint64) {
	w.header(name, help, "counter")
	fmt.Fprintf(&w.buf, "%s{%s} %d\n", name, labels, v)
}

// Gauge emits one unlabelled gauge sample.
func (w *MetricsWriter) Gauge(name, help string, v float64) {
	w.header(name, help, "gauge")
	fmt.Fprintf(&w.buf, "%s %s\n", name, fmtFloat(v))
}

// GaugeL emits one labelled gauge sample.
func (w *MetricsWriter) GaugeL(name, help, labels string, v float64) {
	w.header(name, help, "gauge")
	fmt.Fprintf(&w.buf, "%s{%s} %s\n", name, labels, fmtFloat(v))
}

// Histogram emits a full Prometheus histogram (cumulative le buckets,
// _sum, _count) from a consistent stats snapshot. labels may be empty.
func (w *MetricsWriter) Histogram(name, help, labels string, s stats.HistogramSnapshot) {
	w.header(name, help, "histogram")
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = fmtFloat(s.Bounds[i])
		}
		if labels != "" {
			fmt.Fprintf(&w.buf, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
		} else {
			fmt.Fprintf(&w.buf, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
	}
	w.suffixed(name, "_sum", labels, fmtFloat(s.Sum))
	w.suffixed(name, "_count", labels, strconv.FormatUint(s.N, 10))
}

// Summary emits a Prometheus summary (quantile samples, _sum, _count) from a
// consistent stats snapshot; quantiles are computed from the same snapshot so
// they agree with the count and sum next to them. labels may be empty.
func (w *MetricsWriter) Summary(name, help, labels string, s stats.HistogramSnapshot, qs ...float64) {
	w.header(name, help, "summary")
	for _, q := range qs {
		qv := fmtFloat(s.Quantile(q))
		if labels != "" {
			fmt.Fprintf(&w.buf, "%s{%s,quantile=%q} %s\n", name, labels, fmtFloat(q), qv)
		} else {
			fmt.Fprintf(&w.buf, "%s{quantile=%q} %s\n", name, fmtFloat(q), qv)
		}
	}
	w.suffixed(name, "_sum", labels, fmtFloat(s.Sum))
	w.suffixed(name, "_count", labels, strconv.FormatUint(s.N, 10))
}

// suffixed emits a _sum/_count style sample with optional labels.
func (w *MetricsWriter) suffixed(name, suffix, labels, val string) {
	if labels != "" {
		fmt.Fprintf(&w.buf, "%s%s{%s} %s\n", name, suffix, labels, val)
	} else {
		fmt.Fprintf(&w.buf, "%s%s %s\n", name, suffix, val)
	}
}

// Bytes returns the rendered exposition.
func (w *MetricsWriter) Bytes() []byte { return w.buf.Bytes() }

// String returns the rendered exposition as a string.
func (w *MetricsWriter) String() string { return w.buf.String() }
