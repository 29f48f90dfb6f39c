package main

import (
	"fmt"
	"sort"
	"time"
)

// session is what every run of one invocation shares.
type session struct {
	serverBin string
	flags     map[string]bool // flags the server binary accepts
	host      *hostInfo
	outDir    string

	ramp    time.Duration
	measure time.Duration
}

// liveServer is a loaded server with a driver connected to it.
type liveServer struct {
	proc *serverProc
	drv  driver
}

func (l *liveServer) close() {
	if l.drv != nil {
		l.drv.close()
	}
	l.proc.stop()
}

// dialDriver connects the workload's kind of driver to a server's UDP or
// RESP address, whichever the workload speaks.
func dialDriver(w *workloadSpec, udpAddr, respAddr string, conns int) (driver, error) {
	if w.resp {
		return dialRESP(w, respAddr, conns)
	}
	return dialUDP(w, udpAddr, conns)
}

// setUp starts a server for w and loads the whole population through the
// workload's own socket. The returned duration runs from the spawn to the
// last preload reply: what a user waits before the store can serve.
func (s *session) setUp(w *workloadSpec) (*liveServer, time.Duration, error) {
	proc, err := startServer(s.serverBin, s.flags, w, s.host)
	if err != nil {
		return nil, 0, err
	}
	l := &liveServer{proc: proc}
	if l.drv, err = dialDriver(w, proc.udp, proc.resp, s.host.Conns); err != nil {
		l.close()
		return nil, 0, err
	}
	out, err := l.drv.run(runPlan{src: newPreloadSource(w), window: frameWindow, deadline: preloadDeadline})
	took := time.Since(proc.spawned)
	switch {
	case err != nil:
	case out.failed > 0:
		err = fmt.Errorf("%d of %d preload SETs failed: %s", out.failed, out.attempted, out.firstFailure)
	case out.done != w.population:
		err = fmt.Errorf("preload stored %d of %d keys", out.done, w.population)
	}
	if err != nil {
		l.close()
		return nil, 0, fmt.Errorf("preload %s: %w\n%s", w.name, err, proc.log.String())
	}
	return l, took, nil
}

// runEndToEnd is one untraced run: set the server up, ramp, measure, check.
func (s *session) runEndToEnd(w *workloadSpec, seed int64) (*result, error) {
	res := newResult(w, seed, false, s.host)
	live, took, err := s.setUp(w)
	if err != nil {
		return nil, err
	}
	defer live.close()
	res.SetupS, res.ServerArgs = took.Seconds(), live.proc.args
	obs, err := s.measure1(w, seed, live)
	if err != nil {
		return nil, err
	}
	obs.fill(res, w)
	res.Metrics["setup_s"] = metric{res.SetupS, "s"}
	return res, nil
}

// observation is one ramp+measure phase with the server-side counters taken
// around it.
type observation struct {
	out            *runOutcome
	hash           uint64
	before, after  map[string]float64
	cpuS, peakRSS  float64
	ramp, measured time.Duration
}

func (s *session) measure1(w *workloadSpec, seed int64, live *liveServer) (*observation, error) {
	o := &observation{ramp: s.ramp, measured: s.measure}
	var err error
	if o.before, err = live.proc.scrape(); err != nil {
		return nil, err
	}
	cpu0, _, err := live.proc.procUsage()
	if err != nil {
		return nil, err
	}
	stream := newOpStream(w, seed)
	plan := runPlan{src: stream, ramp: s.ramp, measure: s.measure, window: w.window, deadline: replyDeadline}
	if w.openQPS > 0 {
		plan.openFPS = w.openQPS / float64(w.frameQueries)
	}
	if o.out, err = live.drv.run(plan); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", w.name, err, live.proc.log.String())
	}
	o.hash = stream.hash()
	cpu1, rss, err := live.proc.procUsage()
	if err != nil {
		return nil, fmt.Errorf("%s: server gone after the run: %w\n%s", w.name, err, live.proc.log.String())
	}
	o.cpuS, o.peakRSS = cpu1-cpu0, rss
	if o.after, err = live.proc.scrape(); err != nil {
		return nil, err
	}
	return o, nil
}

// delta is how much a server counter moved over the observation.
func (o *observation) delta(name string) float64 { return o.after[name] - o.before[name] }

// ratio returns a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fill turns the observation into the end-to-end metrics, the printed-only
// figures and the correctness bands of res.
func (o *observation) fill(res *result, w *workloadSpec) {
	out := o.out
	res.RampS, res.MeasuredS = o.ramp.Seconds(), o.measured.Seconds()
	res.StreamHash = fmt.Sprintf("%016x", o.hash)
	res.Attempted, res.Failed = out.attempted, out.failed
	if accounted := out.done + out.failed; out.attempted > accounted {
		// Attempted but neither verified nor booked as failed (the sender gave
		// up mid-run): count it failed rather than let it vanish.
		res.Failed += out.attempted - accounted
	}
	res.Failure = out.firstFailure
	res.Correct = res.Failed == 0 && res.Attempted > 0

	// Throughput is the verified queries that completed inside the measured
	// phase over its length; the slices are the same count in time order.
	rates := make([]float64, len(out.slices))
	var inPhase uint64
	for i, n := range out.slices {
		rates[i] = float64(n) / sliceDur.Seconds() / 1000
		inPhase += n
	}
	res.SliceKqops = rates
	res.Metrics["kqops"] = metric{float64(inPhase) / o.measured.Seconds() / 1000, "kq/s"}
	// The server's collector halves throughput while it runs; the upper
	// quartile slice is the rate between its cycles.
	res.Info["kqops_p75_slice"] = metric{quantile(sortedCopy(rates), 0.75), "kq/s"}

	lat := out.latUS
	sort.Float64s(lat)
	res.Samples = len(lat)
	res.Metrics["p50_us"] = metric{quantile(lat, 0.5), "us"}
	res.Info["p90_us"] = metric{quantile(lat, 0.9), "us"}
	res.Info["p99_us"] = metric{quantile(lat, 0.99), "us"}
	if top := topPercentile(len(lat)); top > 0 {
		res.Info["top_percentile"] = metric{top * 100, "%"}
		res.Info["top_percentile_us"] = metric{quantile(lat, top), "us"}
	}
	if len(out.lateUS) > 0 {
		late := out.lateUS
		sort.Float64s(late)
		res.Info["generator_late_p99_us"] = metric{quantile(late, 0.99), "us"}
	}

	served := o.delta("dido_served_queries_total")
	res.Info["cpu_us_q"] = metric{ratio(o.cpuS*1e6, served), "us/q"}
	res.Info["rss_mb"] = metric{o.peakRSS, "MB"}
	res.Info["q_per_batch"] = metric{ratio(o.delta("dido_pipeline_queries_total"), o.delta("dido_pipeline_batches_total")), "q/batch"}
	res.Info["timeouts"] = metric{float64(out.timeouts), "count"}
	res.Info["stray_replies"] = metric{float64(out.strays), "count"}

	if out.gets > 0 {
		res.band("get_hit_rate", ratio(float64(out.hits), float64(out.gets)), w.hitLo, w.hitHi)
	}
	if w.evictHi > 0 {
		res.band("evictions_per_set", ratio(o.delta("dido_store_evictions_total"), o.delta("dido_store_sets_total")), w.evictLo, w.evictHi)
	}
	if w.scanShare > 0 {
		res.band("scan_entries_per_scan", ratio(float64(out.scanEntries), float64(out.scans)), 1, scanLimit)
	}
	if shed := o.delta("dido_shed_frames_total") + o.delta("dido_pipeline_submit_shed_total"); shed > 0 {
		res.Info["server_shed_frames"] = metric{shed, "count"}
	}
}
