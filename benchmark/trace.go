package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	dido "repro"
	"repro/internal/apu"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/task"
)

// tracedObserve caps the live observation of a traced run: it only has to
// scrape ratios and the batch size, not to be steady.
const tracedObserve = 4 * time.Second

// runTraced produces the per-layer metrics of w: a short live run for what
// only the running server knows (batch size, ratios, CPU and memory), then
// the in-process replay for where the time goes.
func (s *session) runTraced(w *workloadSpec, seed int64) (*result, error) {
	res := newResult(w, seed, true, s.host)
	short := *s
	if short.measure > tracedObserve {
		short.measure = tracedObserve
	}
	live, took, err := short.setUp(w)
	if err != nil {
		return nil, err
	}
	defer live.close()
	res.SetupS, res.ServerArgs = took.Seconds(), live.proc.args
	o, err := short.measure1(w, seed, live)
	if err != nil {
		return nil, err
	}
	// The live run's verdict, counts and bands are this run's too; its
	// figures feed the per-layer metrics and are not reported themselves.
	o.fill(res, w)
	e2eMetrics, e2eInfo := res.Metrics, res.Info
	res.Metrics, res.Info, res.SliceKqops = map[string]metric{}, map[string]metric{}, nil
	var ring struct {
		Events []obs.TraceEvent `json:"events"`
	}
	if w.adapt {
		body, err := live.proc.fetch("/trace")
		if err != nil {
			return nil, fmt.Errorf("fetch /trace: %w", err)
		}
		if err := json.Unmarshal(body, &ring); err != nil {
			return nil, fmt.Errorf("decode /trace: %w", err)
		}
	}
	live.close() // the replay wants the memory and both CPUs' worth of quiet

	m := res.Metrics
	kqops := e2eMetrics["kqops"].Value
	qPerBatch := e2eInfo["q_per_batch"].Value
	if qPerBatch == 0 {
		qPerBatch = float64(w.frameQueries) // a server without the pipeline serves frame by frame
	}
	m["pipeline.q_per_batch"] = metric{qPerBatch, "q/batch"}
	m["pipeline.submit_shed"] = metric{o.delta("dido_pipeline_submit_shed_total"), "count"}
	m["slab.evictions_per_set"] = metric{ratio(o.delta("dido_store_evictions_total"), o.delta("dido_store_sets_total")), "ratio"}
	m["store.hot_hit_ratio"] = metric{ratio(o.delta("dido_store_hot_hits_total"), o.delta("dido_store_gets_total")), "ratio"}
	m["store.scan_fallback_ratio"] = metric{ratio(o.delta("dido_scan_fallbacks_total"), o.delta("dido_scan_entries_total")), "ratio"}
	m["costmodel.replans"] = metric{o.delta("dido_pipeline_replans_total"), "count"}
	m["process.cpu_us_q"] = e2eInfo["cpu_us_q"]
	m["process.rss_mb"] = e2eInfo["rss_mb"]
	var errSum float64
	var errN int
	for _, ev := range ring.Events {
		if ev.PredictedTmax > 0 && ev.RealizedTmax > 0 {
			errSum += math.Abs(float64(ev.PredictedTmax-ev.RealizedTmax)) / float64(ev.RealizedTmax)
			errN++
		}
	}
	m["costmodel.plan_err_mean"] = metric{ratio(errSum, float64(errN)), "ratio"}

	r, err := newReplay(w, seed, qPerBatch, s.outDir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	// One pass to warm caches and size the scratch, and a finished collection
	// before each timed pass: loading a million keys leaves the collector
	// mid-cycle, and its assists would be billed to whichever layer allocates.
	if _, err := r.layerPass(nil); err != nil {
		return nil, err
	}
	runtime.GC()
	idx0 := r.st.Index().StatsSnapshot()
	untraced, err := r.layerPass(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	runtime.GC()
	traced, err := r.layerPass(tr)
	if err != nil {
		return nil, err
	}
	idx1 := r.st.Index().StatsSnapshot()
	m["trace_overhead_ratio"] = metric{float64(traced-untraced) / float64(untraced), "ratio"}
	m["cuckoo.kicks_per_insert"] = metric{ratio(float64(idx1.Kicks-idx0.Kicks), float64(idx1.Inserts-idx0.Inserts)), "ratio"}

	runtime.GC()
	pipeWall, pipeBad, err := r.pipelinePass(tr)
	if err != nil {
		return nil, err
	}
	upserts := r.orderedPass(tr)
	planned := 0
	if len(ring.Events) > 0 {
		planned = planPass(tr, ring.Events[len(ring.Events)-1].Profile)
	}

	nq := float64(len(r.queries))
	self, counts := selfTimes(tr.spans), spanCounts(tr.spans)
	perQ := func(name string) float64 { return float64(self[name]) / nq }
	perUnit := func(name string, units float64) float64 { return ratio(float64(self[name]), units) }
	m["proto.parse_ns_q"] = metric{perQ(spanParse), "ns/q"}
	m["proto.encode_ns_q"] = metric{perQ(spanEncode), "ns/q"}
	m["udpbatch.recv_ns_dgram"] = metric{perUnit(spanRecv, float64(counts[spanParse])), "ns/dgram"}
	m["udpbatch.send_ns_dgram"] = metric{perUnit(spanSend, float64(counts[spanEncode])), "ns/dgram"}
	m["store.search_ns_q"] = metric{perQ(spanSearch), "ns/q"}
	m["store.read_ns_q"] = metric{perQ(spanRead), "ns/q"}
	m["store.set_ns_q"] = metric{perQ(spanSet), "ns/q"}
	m["store.scan_ns_entry"] = metric{perUnit(spanScan, float64(r.verdict.scanEntries)), "ns/entry"}
	m["ordered.upsert_ns"] = metric{perUnit(spanOrdered, float64(upserts)), "ns"}
	m["wal.commit_ns_rec"] = metric{perUnit(spanWAL, float64(r.walRecords)), "ns/rec"}
	m["wal.bytes_per_user_byte"] = metric{ratio(float64(r.log.Stats().Bytes), float64(r.userBytes)), "ratio"}
	m["costmodel.plan_us"] = metric{perUnit(spanPlan, float64(planned)) / 1000, "us"}

	storeNS := perQ(spanSearch) + perQ(spanRead) + perQ(spanSet) + perQ(spanScan)
	pipeNS := float64(pipeWall) / nq
	m["pipeline.overhead_ns_q"] = metric{pipeNS - storeNS, "ns/q"}
	// One replan prices the whole plan; its cost per query is spread over the
	// queries served between replans.
	planNS := ratio(float64(self[spanPlan])/math.Max(1, float64(planned))*o.delta("dido_pipeline_replans_total"),
		o.delta("dido_served_queries_total"))
	layers := perQ(spanParse) + perQ(spanEncode) + perQ(spanRecv) + perQ(spanSend) + pipeNS + planNS
	cpuNS := e2eInfo["cpu_us_q"].Value * 1000
	m["server.unexplained_ns_q"] = metric{cpuNS - layers, "ns/q"}

	res.Info["replay_queries"] = metric{nq, "count"}
	res.Info["replay_batch_queries"] = metric{float64(r.batchQ), "q/batch"}
	res.Info["replay_glue_ns_q"] = metric{perQ(spanBatch), "ns/q"}
	res.Info["layers_sum_ns_q"] = metric{layers, "ns/q"}
	res.Info["server_cpu_ns_q"] = metric{cpuNS, "ns/q"}
	res.Info["server_capacity_ns_q"] = metric{ratio(1e6*float64(serverCPUCount(s.host)), kqops), "ns/q"}
	res.Info["kqops_observed"] = metric{kqops, "kq/s"}
	res.Info["pipeline_ns_q"] = metric{pipeNS, "ns/q"}
	res.Info["store.scan_ns_q"] = metric{perQ(spanScan), "ns/q"}

	// The same prefix through a whole server in this process: frontend,
	// admission, dedupe and scheduler included, generator sharing the CPUs.
	r.st = nil
	debug.FreeOSMemory()
	inproc, err := s.inProcessServer(w, seed, tr)
	if err != nil {
		return nil, err
	}
	res.Info["inprocess_server_ns_q"] = metric{inproc, "ns/q"}

	res.Attempted += uint64(len(r.queries)) * 3 // three layer passes, every reply verified
	replayFailed := r.verdict.busy + r.verdict.errs + r.verdict.mismatches + uint64(pipeBad)
	res.Failed += replayFailed
	if replayFailed > 0 {
		res.Correct = false
		if res.Failure == "" {
			res.Failure = "replay: " + r.verdict.firstFailure
		}
	}
	tracePath := filepath.Join(s.outDir, "trace-"+w.name+".json")
	if err := writeJSON(tracePath, struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, tr.spans}); err != nil {
		return nil, err
	}
	return res, nil
}

func serverCPUCount(h *hostInfo) int {
	if !h.Pinned {
		return h.NProc
	}
	return strings.Count(h.ServerCPUs, ",") + 1
}

// planPass times the cost model's search for the best plan on a profile the
// live controller measured.
func planPass(t *tracer, prof task.Profile) int {
	pl := costmodel.NewPlanner(apu.KaveriPlatform(), pipeline.DefaultLiveBatchInterval)
	pl.MinBatch, pl.MaxBatch = pipeline.DefaultLiveMinBatch, pipeline.DefaultLiveMaxBatch
	pl.INSearchMLP, pl.RVReaders = costmodel.DefaultINSearchMLP, 1
	prof.CacheHitPortion = 0 // the controller makes the planner derive it
	const rounds = 20
	for i := 0; i < rounds; i++ {
		s := t.begin(spanPlan, -1)
		pl.Best(prof)
		t.end(s)
	}
	return rounds
}

// inProcessServer serves the replay prefix from a dido.Server in this
// process, driven over loopback by the same driver, and returns wall
// nanoseconds per query.
func (s *session) inProcessServer(w *workloadSpec, seed int64, t *tracer) (float64, error) {
	st := dido.NewStore(dido.StoreConfig{MemoryBytes: w.memBytes, Ordered: true})
	key, val := make([]byte, w.keySize), make([]byte, w.valSize)
	for rank := uint64(0); rank < w.population; rank++ {
		putKey(key, rank)
		putValue(val, rank)
		if err := st.Set(key, val); err != nil {
			return 0, fmt.Errorf("in-process preload: %w", err)
		}
	}
	srv := dido.NewServerOpts(st, dido.ServerOptions{Pipeline: &dido.PipelineOptions{Adapt: w.adapt}})
	defer srv.Close()
	serve, bound := srv.Serve, srv.Addr
	if w.resp {
		serve, bound = srv.ServeRESP, srv.RESPAddr
	}
	served := make(chan error, 1) // the serve call's one result
	go func() { served <- serve("127.0.0.1:0") }()
	for deadline := time.Now().Add(5 * time.Second); bound() == nil; {
		select {
		case err := <-served:
			return 0, fmt.Errorf("in-process server: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("in-process server did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	addr := bound().String()
	drv, err := dialDriver(w, addr, addr, s.host.Conns)
	if err != nil {
		return 0, err
	}
	defer drv.close()
	src := &limitSource{src: newOpStream(w, seed), left: (replayQueries + w.frameQueries - 1) / w.frameQueries}
	start := time.Now()
	out, err := drv.run(runPlan{src: src, window: w.window, deadline: preloadDeadline})
	if err != nil {
		return 0, fmt.Errorf("in-process server: %w", err)
	}
	end := time.Now()
	if out.failed > 0 {
		return 0, fmt.Errorf("in-process server: %d of %d queries failed: %s", out.failed, out.attempted, out.firstFailure)
	}
	t.record("server.inprocess", -1, start, end)
	return float64(end.Sub(start)) / float64(out.done), nil
}

// limitSource is the first left frames of src.
type limitSource struct {
	src  frameSource
	left int
}

func (l *limitSource) frameQueries() int { return l.src.frameQueries() }

func (l *limitSource) fill(f *frameBuf) bool {
	if l.left == 0 {
		f.reset()
		return false
	}
	l.left--
	return l.src.fill(f)
}
