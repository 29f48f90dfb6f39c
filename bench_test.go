// Benchmark entry points, one per reproduced table/figure of the paper's
// evaluation (§V). Each iteration regenerates the figure at a reduced scale
// and reports its headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// sweeps the entire evaluation. For full-resolution tables use
// cmd/dido-bench, which prints the paper-style rows.
package dido_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	dido "repro"
	"repro/internal/bench"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/wal"
	"repro/internal/zipf"
)

// benchScale keeps -bench=. affordable (the full sweep regenerates 16
// figures); cmd/dido-bench uses DefaultScale for the real tables.
func benchScale() bench.Scale {
	sc := bench.QuickScale()
	sc.MemBytes = 2 << 20
	sc.Batches = 6
	sc.WarmBatches = 2
	sc.MaxBatch = 1 << 12
	return sc
}

// runFig runs one registered experiment per iteration and reports metric
// (the value of tab.Mean(col) on the first returned table) under name.
func runFig(b *testing.B, id string, col int, metric string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	sc := benchScale()
	var last float64
	for i := 0; i < b.N; i++ {
		tabs := e.Run(sc)
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		last = tabs[0].Mean(col)
	}
	b.ReportMetric(last, metric)
}

func BenchmarkFig04StageTimes(b *testing.B)      { runFig(b, "fig4", 2, "readsend_us") }
func BenchmarkFig05GPUUtilization(b *testing.B)  { runFig(b, "fig5", 0, "gpu_util") }
func BenchmarkFig06IndexOpShares(b *testing.B)   { runFig(b, "fig6", 3, "update_share") }
func BenchmarkFig09CostModelError(b *testing.B)  { runFig(b, "fig9", 0, "err_pct") }
func BenchmarkFig10OptimalityGap(b *testing.B)   { runFig(b, "fig10", 1, "best_over_dido") }
func BenchmarkFig11DIDOvsMegaKV(b *testing.B)    { runFig(b, "fig11", 2, "speedup") }
func BenchmarkFig12Utilization(b *testing.B)     { runFig(b, "fig12", 0, "dido_gpu_util") }
func BenchmarkFig13IndexAssignment(b *testing.B) { runFig(b, "fig13", 2, "speedup") }
func BenchmarkFig14DynamicPipeline(b *testing.B) { runFig(b, "fig14", 2, "speedup") }
func BenchmarkFig15WorkStealing(b *testing.B)    { runFig(b, "fig15", 2, "speedup") }
func BenchmarkFig16AbsoluteThroughput(b *testing.B) {
	runFig(b, "fig16", 3, "discrete_over_dido")
}
func BenchmarkFig17PricePerformance(b *testing.B) { runFig(b, "fig17", 3, "dido_over_discrete") }
func BenchmarkFig18EnergyEfficiency(b *testing.B) { runFig(b, "fig18", 2, "dido_kops_per_w") }
func BenchmarkFig19LatencyBudgets(b *testing.B)   { runFig(b, "fig19", 2, "improvement_1000us_pct") }
func BenchmarkFig20AdaptationTrace(b *testing.B)  { runFig(b, "fig20", 1, "trace_mops") }
func BenchmarkFig21FluctuationCycles(b *testing.B) {
	runFig(b, "fig21", 1, "speedup")
}

// benchmarkServe measures end-to-end UDP serving throughput over loopback:
// concurrent clients each driving 64-query frames (95% GET) against a
// prefilled store. One iteration = one frame round-trip. The entry points
// below run the pipeline with and without the durability tier (walSync ""
// disables it; otherwise it names the -wal-sync policy: "batch" or
// "interval").
// serveBenchConfig selects the variant: attached observability/durability
// tiers, and the ingestion tier's shape (netQueues REUSEPORT queues; adapt
// swaps the static stage provider for the online planner, which also sizes
// the effective reader count at startup).
type serveBenchConfig struct {
	observed  bool
	walSync   string
	netQueues int
	adapt     bool
}

// staticBenchPipeline is the pipeline shape for the non-adaptive serving
// benchmarks on this CPU-only host: the single CPU stage (the same config
// the online planner converges to in TestPipelinedAdaptReplans). The
// cost-model driven placement across real CPU/GPU stages is evaluated by
// the simulated experiments (fig11..fig16); its planner prices a Kaveri APU,
// which a loopback benchmark cannot measure.
func staticBenchPipeline() *dido.PipelineOptions {
	return &dido.PipelineOptions{
		BatchInterval: 100 * time.Microsecond,
		Provider: &pipeline.StaticProvider{
			Config:   pipeline.Config{GPUDepth: 0},
			Interval: 100 * time.Microsecond,
			MinBatch: pipeline.DefaultLiveMinBatch,
			MaxBatch: pipeline.DefaultLiveMaxBatch,
		},
	}
}

func benchmarkServe(b *testing.B, cfg serveBenchConfig) {
	observed, walSync := cfg.observed, cfg.walSync
	const (
		keys       = 8 << 10
		frameQs    = 64
		valueBytes = 64
	)
	st := dido.NewStore(dido.StoreConfig{MemoryBytes: 64 << 20})
	val := make([]byte, valueBytes)
	// Keys are preformatted: a per-query fmt.Sprintf would cost more CPU than
	// the serving paths under comparison (everything shares one core here).
	keyName := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyName[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
		if err := st.Set(keyName[i], val); err != nil {
			b.Fatal(err)
		}
	}
	opts := dido.ServerOptions{NetQueues: cfg.netQueues, Pipeline: staticBenchPipeline()}
	if cfg.adapt {
		// The real deployment shape for the multi-queue rows: -adapt prices
		// RV/PP parallelism in the cost model and sizes the effective reader
		// count at startup (a 1-CPU host gates extra queues off entirely).
		opts.Pipeline = &dido.PipelineOptions{BatchInterval: 100 * time.Microsecond, Adapt: true}
	}
	// The observed variant prices the observability layer in the hot path:
	// slow-query checks on every completed frame plus a live admin endpoint
	// being scraped during the measurement. Acceptance: ns/op within 2% of
	// the unobserved pipelined run (see bench_results.txt).
	var slow *obs.SlowLog
	if observed {
		slow = obs.NewSlowLog(time.Millisecond, obs.DefaultSlowLogSize, 1)
		opts.SlowLog = slow
	}
	// The durable variants price the WAL in the hot path: every 5%-SET frame
	// appends + group-commits before its ack. Target: ns/op within 10% of the
	// same path without -wal; measured deltas and why the 1-CPU host misses
	// that target are in bench_results.txt ("durability overhead").
	if walSync != "" {
		d := &dido.DurabilityOptions{Dir: b.TempDir()}
		switch walSync {
		case "batch":
			d.Sync = wal.SyncBatch
		case "interval":
			d.Sync = wal.SyncInterval
			d.SyncInterval = 10 * time.Millisecond
		default:
			b.Fatalf("unknown walSync %q", walSync)
		}
		opts.Durability = d
	}
	srv := dido.NewServerOpts(st, opts)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve("127.0.0.1:0") }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()
	defer func() {
		srv.Close()
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}()

	if observed {
		admin := obs.NewAdmin(obs.AdminOptions{
			Collect: func(w *obs.MetricsWriter) {
				srv.CollectMetrics(w)
				st.CollectMetrics(w)
			},
			Config:  func() any { return srv.ConfigView() },
			SlowLog: slow,
		})
		if err := admin.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer admin.Close()
		// A scraper polling /metrics throughout the run, the way a Prometheus
		// agent would (aggressive 1s interval; production is 10-15s) — the
		// exposition renders from live counters, so this exercises snapshot
		// contention against the serving path.
		stopScrape := make(chan struct{})
		defer close(stopScrape)
		go func() {
			url := "http://" + admin.Addr().String() + "/metrics"
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopScrape:
					return
				case <-tick.C:
					if resp, err := http.Get(url); err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck
						resp.Body.Close()
					}
				}
			}
		}()
	}

	// Many client goroutines per core so the server is saturated and batches
	// actually fill (~10 frames each): the pipeline's win is amortizing
	// dispatch and send/recv syscalls across frames in flight, which needs
	// enough concurrent senders to keep a queue at the socket — batching pays
	// off under load, which is the regime the paper targets.
	b.SetParallelism(32)
	var cursor atomic.Int64
	var failed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := dido.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		qs := make([]dido.Query, frameQs)
		seq := int(cursor.Add(1)) * 7919 // cheap per-goroutine offset
		for pb.Next() {
			for i := range qs {
				k := keyName[(seq+i)%keys]
				if i%20 == 19 { // 5% SET
					qs[i] = dido.Query{Op: dido.OpSet, Key: k, Value: val}
				} else {
					qs[i] = dido.Query{Op: dido.OpGet, Key: k}
				}
			}
			seq += frameQs
			if _, err := c.Do(qs); err != nil {
				// A saturation benchmark deliberately drives the server into
				// its shedding regime; a frame that exhausts its retry budget
				// on StatusBusy (or times out behind an fsync stall on the
				// durable variants) is designed behavior, not a bench failure.
				// It still cost a full iteration, so it is excluded from the
				// served-query count below.
				if errors.Is(err, dido.ErrBusy) || errors.Is(err, dido.ErrTimeout) {
					failed.Add(1)
					continue
				}
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	served := float64(b.N) - float64(failed.Load())
	qops := served * frameQs / b.Elapsed().Seconds()
	b.ReportMetric(qops/1000, "kqops")
	if n := failed.Load(); n > 0 {
		b.Logf("%d of %d frames failed their retry budget (busy/timeout)", n, b.N)
	}
	if ps := srv.PipelineStats(); ps.Batches > 0 {
		b.ReportMetric(float64(ps.Queries)/float64(ps.Batches), "q/batch")
		replans, _ := srv.PipelineReplans()
		b.Logf("pipeline config: %v (reconfigs=%d replans=%d target=%d)",
			ps.Config, ps.Reconfigs, replans, ps.Target)
	}
	if ds, ok := srv.DurabilityStats(); ok {
		b.Logf("wal: records=%d bytes=%d syncs=%d drops=%d",
			ds.WAL.Records, ds.WAL.Bytes, ds.WAL.Syncs, ds.DroppedAcks)
	}
	reportQueueSpread(b, srv, "udp", cfg.netQueues)
}

// reportQueueSpread records the ingestion tier's shape in the bench output:
// how many queues were effective (the platform can clamp and -adapt can gate
// the requested count down) and the per-queue receive counters proving — or
// disproving — that the kernel actually spread the load.
func reportQueueSpread(b *testing.B, srv *dido.Server, name string, requested int) {
	if requested <= 1 {
		return
	}
	b.ReportMetric(float64(srv.NetQueues()), "queues_effective")
	qs := srv.FrontendQueueStats(name)
	if len(qs) <= 1 {
		return
	}
	qmin, qmax := qs[0].Frames, qs[0].Frames
	for _, q := range qs[1:] {
		if q.Frames < qmin {
			qmin = q.Frames
		}
		if q.Frames > qmax {
			qmax = q.Frames
		}
	}
	b.ReportMetric(float64(qmin)/1000, "kframes_qmin")
	b.ReportMetric(float64(qmax)/1000, "kframes_qmax")
	b.Logf("%s queue spread: %d queues, frames min=%d max=%d", name, len(qs), qmin, qmax)
}

func BenchmarkServePipelined(b *testing.B) { benchmarkServe(b, serveBenchConfig{}) }

// The Q4 variants shard ingestion across 4 SO_REUSEPORT queues (each with its
// own reader, sender and address cache). RunParallel's per-goroutine clients
// are distinct source sockets, so the kernel hashes them across the queues —
// the per-queue frame counters in the bench log prove the spread. AdaptQ4 is
// the deployment shape: the online planner prices RV/PP parallelism and sizes
// the effective reader count at startup, so on a 1-CPU host queues_effective
// reports the controller gating the extra readers off.
func BenchmarkServePipelinedQ4(b *testing.B) { benchmarkServe(b, serveBenchConfig{netQueues: 4}) }
func BenchmarkServePipelinedAdaptQ4(b *testing.B) {
	benchmarkServe(b, serveBenchConfig{netQueues: 4, adapt: true})
}

// benchmarkServeScan prices the range-scan path at saturation: the same
// loopback harness as the point-op A/B, but against an ordered store with a
// zipf-skewed point-read/scan mix — 1 in 8 queries is a bounded 16-entry
// SCAN starting at a zipf-sampled key, the rest are zipf GETs with the usual
// 5% SETs (which now also pay the ordered-index upsert). Scans run as
// batched range merges (one MVCC snapshot set per batch, task.SC);
// entries/scan confirms they did real merge work rather than degenerating
// to point reads.
func BenchmarkServeScanPipelined(b *testing.B) {
	const (
		keys       = 8 << 10
		frameQs    = 64
		valueBytes = 64
		scanLimit  = 16
	)
	st := dido.NewStore(dido.StoreConfig{MemoryBytes: 64 << 20, Ordered: true})
	val := make([]byte, valueBytes)
	keyName := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyName[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
		if err := st.Set(keyName[i], val); err != nil {
			b.Fatal(err)
		}
	}
	srv := dido.NewServerOpts(st, dido.ServerOptions{Pipeline: staticBenchPipeline()})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve("127.0.0.1:0") }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()
	defer func() {
		srv.Close()
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}()

	b.SetParallelism(32)
	var cursor atomic.Int64
	var failed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := dido.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		zg := zipf.NewGenerator(keys, 0.99, 7919*cursor.Add(1))
		qs := make([]dido.Query, frameQs)
		for pb.Next() {
			for i := range qs {
				k := keyName[zg.Next()%keys]
				switch {
				case i%8 == 7: // 12.5% SCAN
					qs[i] = proto.ScanQuery(k, nil, scanLimit)
				case i%20 == 19: // 5% SET
					qs[i] = dido.Query{Op: dido.OpSet, Key: k, Value: val}
				default:
					qs[i] = dido.Query{Op: dido.OpGet, Key: k}
				}
			}
			if _, err := c.Do(qs); err != nil {
				if errors.Is(err, dido.ErrBusy) || errors.Is(err, dido.ErrTimeout) {
					failed.Add(1)
					continue
				}
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	served := float64(b.N) - float64(failed.Load())
	b.ReportMetric(served*frameQs/b.Elapsed().Seconds()/1000, "kqops")
	if ss := st.Stats(); ss.Scans > 0 {
		b.ReportMetric(float64(ss.ScanEntries)/float64(ss.Scans), "entries/scan")
	}
	if ps := srv.PipelineStats(); ps.Batches > 0 {
		b.ReportMetric(float64(ps.Queries)/float64(ps.Batches), "q/batch")
	}
	if n := failed.Load(); n > 0 {
		b.Logf("%d of %d frames failed their retry budget (busy/timeout)", n, b.N)
	}
}

// benchmarkServeRESP is the UDP A/B's TCP/RESP counterpart: the same store,
// key space, value size and 5%-SET mix driven through the RESP front end with
// the in-repo pipelining client (one command per query, one write per batch).
// Beyond the TCP+RESP framing tax, the mixed workload prices the front end's
// sequential-semantics contract: command runs seal at read↔write boundaries,
// so a 64-command batch with interleaved SETs fragments into ~7 frames where
// the binary protocol carries it as 1 (see bench_results.txt).
func benchmarkServeRESP(b *testing.B, netQueues int) {
	const (
		keys       = 8 << 10
		frameQs    = 64
		valueBytes = 64
	)
	st := dido.NewStore(dido.StoreConfig{MemoryBytes: 64 << 20})
	val := make([]byte, valueBytes)
	keyName := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyName[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
		if err := st.Set(keyName[i], val); err != nil {
			b.Fatal(err)
		}
	}
	srv := dido.NewServerOpts(st, dido.ServerOptions{NetQueues: netQueues, Pipeline: staticBenchPipeline()})
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeRESP("127.0.0.1:0") }()
	for srv.RESPAddr() == nil {
		time.Sleep(time.Millisecond)
	}
	addr := srv.RESPAddr().String()
	defer func() {
		srv.Close()
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}()

	b.SetParallelism(32)
	var cursor atomic.Int64
	var busyQueries atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := frontend.DialRESP(addr, 10*time.Second)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		qs := make([]dido.Query, frameQs)
		seq := int(cursor.Add(1)) * 7919
		for pb.Next() {
			for i := range qs {
				k := keyName[(seq+i)%keys]
				if i%20 == 19 { // 5% SET
					qs[i] = dido.Query{Op: dido.OpSet, Key: k, Value: val}
				} else {
					qs[i] = dido.Query{Op: dido.OpGet, Key: k}
				}
			}
			seq += frameQs
			resps, err := c.Do(qs)
			if err != nil {
				b.Error(err)
				return
			}
			// Per-conn admission sheds individual frames with -BUSY rather
			// than failing the whole round trip; exclude shed queries from
			// the served count the way the UDP harness excludes ErrBusy.
			for _, r := range resps {
				if r.Status == dido.StatusBusy {
					busyQueries.Add(1)
				}
			}
		}
	})
	b.StopTimer()
	served := float64(b.N)*frameQs - float64(busyQueries.Load())
	b.ReportMetric(served/b.Elapsed().Seconds()/1000, "kqops")
	if n := busyQueries.Load(); n > 0 {
		b.Logf("%d of %d queries shed with -BUSY", n, int64(b.N)*frameQs)
	}
	if ps := srv.PipelineStats(); ps.Batches > 0 {
		b.ReportMetric(float64(ps.Queries)/float64(ps.Batches), "q/batch")
	}
	reportQueueSpread(b, srv, "resp", netQueues)
}

func BenchmarkServeRESPPipelined(b *testing.B) { benchmarkServeRESP(b, 1) }

// BenchmarkServeRESPPipelinedQ4 shards the RESP accept path across 4
// REUSEPORT listeners sharing one ConnGate; each per-goroutine client is its
// own TCP connection, so the kernel spreads accepts across the listeners.
func BenchmarkServeRESPPipelinedQ4(b *testing.B) { benchmarkServeRESP(b, 4) }

// BenchmarkServePipelinedObserved is BenchmarkServePipelined with the full
// observability layer attached: slow-query log on every frame completion and
// an admin endpoint scraped every 50ms during the run.
func BenchmarkServePipelinedObserved(b *testing.B) {
	benchmarkServe(b, serveBenchConfig{observed: true})
}

// The Durable variants attach the durability tier with -wal-sync batch (the
// default: group-commit fsync before every ack). Group commit is what keeps
// the overhead bounded — under 32-way parallelism, concurrent write-bearing
// frames share one fsync. The Interval variants relax the ack-time fsync to a
// 10ms background sync (acked writes can lose up to one interval on power
// loss, not on process crash).
func BenchmarkServePipelinedDurable(b *testing.B) {
	benchmarkServe(b, serveBenchConfig{walSync: "batch"})
}
func BenchmarkServePipelinedDurableInterval(b *testing.B) {
	benchmarkServe(b, serveBenchConfig{walSync: "interval"})
}
