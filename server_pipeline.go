package dido

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/apu"
	"repro/internal/costmodel"
	"repro/internal/cuckoo"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/store"
)

// This file routes admitted frames — from any frontend — through the
// task-granular live pipeline (internal/pipeline.LiveRunner): the frontend
// readers perform RV/PP (parse) and the core submits, stage worker groups
// execute IN/KC+RD/WR batched under each batch's sealed config, and the SD
// callback encodes and delivers responses through each frame's Responder and
// releases the frame's admission token. A frame passes the reply-cache begin
// / token gate before it ever reaches the pipeline, and its in-flight marker
// is cleared only when its responses were sent (or it was poisoned and the
// client must retry).

// PipelineOptions configures the server's batched pipeline. The zero value
// gives the defaults. Every batch's GETs take the store's batched read path
// (one shard-grouped search and one fused KC+RD call per stage), so there is
// no read-path knob.
//
// Within one batch the pipeline executes all index writes before all reads
// (the paper's staged semantics; see Server for the ordering contract).
// Clients that need read-then-write ordering for the same key put the
// operations in separate requests.
type PipelineOptions struct {
	// BatchInterval bounds how long a partial batch waits before execution.
	// Default pipeline.DefaultLiveBatchInterval.
	BatchInterval time.Duration
	// MaxBatch caps the batch size in queries (even when adaptation would
	// prefer more, latency stays bounded). Default pipeline.DefaultLiveMaxBatch.
	MaxBatch int
	// Workers sets goroutines per pipeline stage group; entries ≤ 0 mean 1.
	Workers [3]int
	// Adapt turns on online reconfiguration: per-batch measured profiles feed
	// the workload profiler and cost model, and a new (config, batch size)
	// pair is installed at batch boundaries when the workload shifts >10%.
	// Requires the backend to be a *Store (the profiler reads its access
	// counters); otherwise the static default config is used.
	Adapt bool
	// Provider overrides the config provider entirely (tests); when set,
	// Adapt is ignored.
	Provider pipeline.ConfigProvider
	// Trace, when non-nil with Adapt, receives one event per controller
	// decision (every batch boundary) for the admin /trace endpoint. Ignored
	// without Adapt — the static provider makes no decisions worth auditing.
	Trace *obs.TraceRing
}

// serverPipeline is the server's handle on the live runner.
type serverPipeline struct {
	runner *pipeline.LiveRunner
	ctrl   *costmodel.Controller // non-nil only when adapting
	slots  sync.Pool             // *liveSlot
	// measureParse mirrors runner.WantsProfile(): whether frontends should
	// time RV/PP per frame (the cost feeds only the measured profile).
	measureParse bool
}

// liveSlot binds one frontend frame to its pipeline LiveFrame while it
// travels the staged executor, plus the durability flags the LG task and the
// SD callback coordinate through.
type liveSlot struct {
	lf pipeline.LiveFrame
	f  *frontend.Frame
	// walRecords marks a frame that contributed records to the batch's WAL
	// commit; walFailed marks one whose commit failed — its ack is dropped so
	// the client retries (acked implies durable).
	walRecords, walFailed bool
}

func (sl *liveSlot) reset() {
	sl.lf = pipeline.LiveFrame{}
	sl.f = nil
	sl.walRecords, sl.walFailed = false, false
}

// initPipeline wires the live runner into s; called from every server
// constructor. The runner's workers start here — a server must be Closed
// even if Serve is never called.
func (s *Server) initPipeline(po *PipelineOptions) {
	interval := po.BatchInterval
	if interval <= 0 {
		interval = pipeline.DefaultLiveBatchInterval
	}
	maxBatch := po.MaxBatch
	if maxBatch <= 0 {
		maxBatch = pipeline.DefaultLiveMaxBatch
	}
	ls, inner := newLiveStore(s.store)
	pipe := &serverPipeline{}
	provider := po.Provider
	if provider == nil {
		if po.Adapt && inner != nil {
			pl := costmodel.NewPlanner(apu.KaveriPlatform(), interval)
			pl.MinBatch = pipeline.DefaultLiveMinBatch
			pl.MaxBatch = maxBatch
			// The batched executor serves IN(Search); let the planner price
			// its memory-level parallelism so it prefers wide IN stages at
			// large batch sizes.
			pl.INSearchMLP = costmodel.DefaultINSearchMLP
			if s.netQueues > 1 {
				// Reader parallelism is a socket-open-time decision (a parked
				// REUSEPORT socket would strand its kernel-hashed flows), so
				// size it once here, like any other task placement, against
				// the real host's schedulable cores; every later replan then
				// prices RV/PP at the effective reader count.
				s.netQueues = pl.SizeReaders(costmodel.DefaultIngestProfile(),
					runtime.GOMAXPROCS(0), s.netQueues)
			}
			// ≥ 1 always: the live frontends run RV/PP on their reader
			// goroutines, not on the stage worker group the simulator models.
			pl.RVReaders = s.netQueues
			sizer := &pipeline.BatchSizer{Interval: interval, Min: pl.MinBatch, Max: maxBatch}
			sizer.Set(pipeline.DefaultInitialBatch)
			pipe.ctrl = costmodel.NewController(pl, profiler.New(inner), pipeline.DefaultLiveConfig(), sizer)
			pipe.ctrl.Trace = po.Trace
			provider = pipe.ctrl
		} else {
			provider = &pipeline.StaticProvider{
				Config:   pipeline.DefaultLiveConfig(),
				Interval: interval,
				MinBatch: pipeline.DefaultLiveMinBatch,
				MaxBatch: maxBatch,
			}
		}
	}
	pipe.slots.New = func() any { return &liveSlot{} }
	lopts := pipeline.LiveOptions{
		Provider:      provider,
		BatchInterval: interval,
		Workers:       po.Workers,
		DoneBatch:     s.pipelineBatchDone,
	}
	if s.dur != nil {
		// Durable server: the LG task group-commits each batch's WAL records
		// between WR and SD, and its measured cost feeds the adaptation
		// profile's LG term.
		lopts.LogBatch = s.pipelineLogBatch
	}
	pipe.runner = pipeline.NewLiveRunner(ls, lopts)
	pipe.measureParse = pipe.runner.WantsProfile()
	s.pipe = pipe
}

// submitPipelined hands an admitted, parsed frame to the pipeline. The
// frontend already ran RV/PP; the caller has passed the dedupe gate and
// acquired a token and a wg slot, and every exit path here or in
// pipelineBatchDone releases all three.
func (s *Server) submitPipelined(f *frontend.Frame) {
	sl := s.pipe.slots.Get().(*liveSlot)
	sl.f = f
	sl.lf = pipeline.LiveFrame{
		Queries:    f.Queries,
		ParseNanos: f.ParseNanos,
		Ctx:        sl,
	}
	if !s.pipe.runner.Submit(&sl.lf) {
		// Pipeline saturated (or closing): shed like the token path does, so
		// the client backs off instead of timing out.
		s.shed.Inc()
		if f.Tracked {
			s.replies.abort(f.AKey, f.ReqID)
			f.Tracked = false
		}
		f.R.Busy(f)
		sl.reset()
		s.pipe.slots.Put(sl)
		<-s.tokens
		s.wg.Done()
		f.R.Release(f)
	}
}

// pipelineBatchDone is the SD task for one completed batch: it encodes every
// healthy frame's responses, fills the reply cache (before the send, see
// cacheReply), delivers the batch through each responder's batched path
// (sendmmsg for UDP, one coalesced write per connection for RESP), and
// releases each frame's token and wg slot.
// A poisoned frame (lf.Err) or one whose WAL commit failed gets Fail instead
// of an ack: the datagram client's retry is re-admitted, the stream client
// sees in-band errors (its reply ordering must not skip a frame).
//
// Reply caching here does not depend on send success: the batched sender is
// best-effort (UDP gives no per-datagram delivery signal), so a computed
// reply is always cached and a retry whose response was dropped is answered
// by replay instead of re-execution.
func (s *Server) pipelineBatchDone(lfs []*pipeline.LiveFrame) {
	var (
		fs    []*frontend.Frame
		first frontend.Responder
		mixed bool
	)
	for _, lf := range lfs {
		sl := lf.Ctx.(*liveSlot)
		f := sl.f
		if lf.Err {
			s.panics.Inc()
			f.R.Fail(f, "internal error")
			continue
		}
		if sl.walFailed {
			// The batch's WAL commit failed: this frame's writes are applied
			// in memory but not durable, so it gets no successful ack — the
			// client's retry re-executes (idempotent) or is answered once a
			// later commit lands its records.
			f.R.Fail(f, "wal commit failed")
			continue
		}
		s.served.Add(uint64(len(lf.Queries)))
		if f.Units == nil { // already encoded by the LG task on durable servers
			f.Units = f.R.Encode(f, lf.Resps)
		}
		s.cacheReply(f, f.Units)
		fs = append(fs, f)
		if first == nil {
			first = f.R
		} else if first != f.R {
			mixed = true
		}
	}
	if len(fs) > 0 {
		if !mixed {
			first.DeliverBatch(fs)
		} else {
			// Several frontends contributed to this batch: partition by
			// responder, preserving per-responder frame order.
			rem := fs
			for len(rem) > 0 {
				r0 := rem[0].R
				group := make([]*frontend.Frame, 0, len(rem))
				rest := rem[:0]
				for _, f := range rem {
					if f.R == r0 {
						group = append(group, f)
					} else {
						rest = append(rest, f)
					}
				}
				r0.DeliverBatch(group)
				rem = rest
			}
		}
	}
	slog := s.opts.SlowLog
	for _, lf := range lfs {
		sl := lf.Ctx.(*liveSlot)
		f := sl.f
		bad := lf.Err || sl.walFailed
		if slog != nil && !bad && len(f.Queries) > 0 {
			slog.Observe(time.Since(f.Start), len(f.Queries), uint8(f.Queries[0].Op), f.Queries[0].Key)
		}
		if f.Tracked { // bad: clear the in-flight marker so the retry is re-admitted
			s.replies.abort(f.AKey, f.ReqID)
			f.Tracked = false
		}
		<-s.tokens
		sl.reset()
		s.pipe.slots.Put(sl)
		f.R.Release(f)
		s.wg.Done()
	}
}

// newLiveStore adapts the server's Backend to the pipeline's batched store
// surface. A real *Store exposes its shard-grouped batched search and fused
// KC+RD directly (and its metrics for the adaptation profile); any other
// backend — test fakes, the fault injector — is wrapped so every query still
// flows through it, one key at a time.
func newLiveStore(b Backend) (pipeline.LiveStore, *store.Store) {
	if st, ok := b.(*Store); ok {
		return storeLive{st.inner}, st.inner
	}
	gi, _ := b.(GetIntoBackend)
	sb, _ := b.(ScanBackend)
	return backendLive{b: b, gi: gi, sb: sb}, nil
}

type storeLive struct{ s *store.Store }

func (l storeLive) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	return l.s.SearchBatch(keys, dst, lo, hi)
}

func (l storeLive) ReadCandidatesBatch(keys [][]byte, cands []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	return l.s.ReadCandidatesBatch(keys, cands, lo, hi, vals, vlo, vhi)
}

func (l storeLive) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	return l.s.GetBatch(keys, vals, vlo, vhi)
}

func (l storeLive) Set(key, value []byte) error {
	_, _, err := l.s.Set(key, value)
	return err
}

func (l storeLive) Delete(key []byte) bool { return l.s.Delete(key) }

// NewScanner satisfies pipeline.RangeScanner: one MVCC snapshot set per
// batch, so every SCAN in the batch merges the same key-set version. The
// typed-nil guard matters — a store without the ordered index returns a nil
// *store.Scanner, which must surface as a nil interface so the runner
// answers StatusError instead of calling through it.
func (l storeLive) NewScanner() pipeline.LiveScanner {
	if sc := l.s.NewScanner(); sc != nil {
		return sc
	}
	return nil
}

func (l storeLive) LiveMetrics() (liveObjects, evictions uint64, avgInsertBuckets float64) {
	st := l.s.StatsSnapshot()
	return uint64(st.LiveObjects), st.Evictions, st.AvgInsertBucketsProbed
}

type backendLive struct {
	b  Backend
	gi GetIntoBackend
	sb ScanBackend
}

// SearchBatch records empty candidate spans: a wrapped backend has no index
// to probe, so every key resolves in the read stage.
func (l backendLive) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	for i := range keys {
		lo[i], hi[i] = int32(len(dst)), int32(len(dst))
	}
	return dst
}

func (l backendLive) ReadCandidatesBatch(keys [][]byte, _ []cuckoo.Location, _, _ []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	return l.GetBatch(keys, vals, vlo, vhi)
}

// GetBatch looks the keys up one at a time through the wrapped backend.
func (l backendLive) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	hits := 0
	for i, key := range keys {
		mark := len(vals)
		ok := false
		if l.gi != nil {
			vals, ok = l.gi.GetInto(key, vals)
		} else if v, found := l.b.Get(key); found {
			vals, ok = append(vals, v...), true
		}
		if !ok {
			vlo[i], vhi[i] = -1, -1
			continue
		}
		vlo[i], vhi[i] = int32(mark), int32(len(vals))
		hits++
	}
	return vals, hits
}

func (l backendLive) Set(key, value []byte) error { return l.b.Set(key, value) }

func (l backendLive) Delete(key []byte) bool { return l.b.Delete(key) }

// backendScanner adapts a ScanBackend to the pipeline's per-batch scanner.
// Each Scan takes its own snapshot (the wrapped backend decides), which is
// weaker than storeLive's batch-wide snapshot but preserves the per-scan
// contract for wrapped backends.
type backendScanner struct{ sb ScanBackend }

func (a backendScanner) Scan(start, end []byte, limit int, fn func(key, value []byte) bool) int {
	n, _ := a.sb.Scan(start, end, limit, fn)
	return n
}

func (l backendLive) NewScanner() pipeline.LiveScanner {
	if l.sb == nil {
		return nil
	}
	return backendScanner{sb: l.sb}
}

// LivePipelineStats re-exports the live runner's counter snapshot.
type LivePipelineStats = pipeline.LiveStats

// PipelineStats returns the live pipeline's counters.
func (s *Server) PipelineStats() LivePipelineStats { return s.pipe.runner.Stats() }

// PipelineStageQuantiles returns, per pipeline stage, the given quantiles of
// per-batch stage wall time in microseconds.
func (s *Server) PipelineStageQuantiles(qs ...float64) [3][]float64 {
	return s.pipe.runner.StageQuantiles(qs...)
}

// PipelineReplans returns how many times online adaptation installed a
// re-planned config; ok is false unless the server runs with Adapt.
func (s *Server) PipelineReplans() (uint64, bool) {
	if s.pipe.ctrl == nil {
		return 0, false
	}
	return s.pipe.ctrl.Replans(), true
}
