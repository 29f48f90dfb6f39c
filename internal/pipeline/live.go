package pipeline

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cuckoo"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/task"
)

// This file is the live (wall-clock) counterpart of runner.go: the same
// Batch / Config / ConfigProvider abstractions, executed against a real
// store on goroutine stage groups instead of the discrete-event engine.
// RV/PP happen at the submitter (the server's socket reader parses the frame
// before Submit); IN(Search), IN(Insert), IN(Delete), the fused KC+RD, and
// WR run on whichever stage group the batch's sealed Config maps them to;
// SD is the Done callback delivering each frame's responses.

// LiveStore is the store surface the live pipeline executes against, split
// along the paper's task boundaries so each piece can run in its own stage.
// Reads are batched: a stage gathers every GET key of its batch and makes
// one store call over them — the batch-parallel execution the paper's IN
// stage gets from the GPU (§V). Value spans are offset pairs into the shared
// vals arena; vlo[i] = -1 marks a miss.
type LiveStore interface {
	// SearchBatch performs IN(Search): candidates for keys[i] are appended
	// to dst with their span recorded in lo[i]:hi[i]. Implementations
	// without a task-granular index may record empty spans and resolve the
	// reads entirely in ReadCandidatesBatch.
	SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location
	// ReadCandidatesBatch performs the fused KC+RD tasks over previously
	// collected candidate spans, appending each live value to vals and
	// returning the grown arena and the hit count. When every candidate of
	// a key is stale (its search raced a writer) the implementation must
	// fall back to an authoritative lookup rather than report a miss.
	ReadCandidatesBatch(keys [][]byte, cands []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int)
	// GetBatch is the fused search+read, used when IN(Search) and KC share
	// a stage.
	GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int)
	// Set performs the composite MM + IN(Insert) + IN(Delete) write.
	Set(key, value []byte) error
	// Delete performs IN(Delete) for an explicit DELETE query.
	Delete(key []byte) bool
}

// LiveScanner serves one batch's SCAN queries from a single MVCC snapshot
// capture: every scan in the batch merges over the same per-shard tree
// versions (the batched range merge). The slices passed to fn are reused
// between entries; the callback must copy what it keeps.
type LiveScanner interface {
	Scan(start, end []byte, limit int, fn func(key, value []byte) bool) int
}

// RangeScanner is an optional LiveStore extension: stores with an ordered
// index (store.Config.Ordered) expose MVCC range scans and the SC pipeline
// task executes against them. NewScanner must return nil when the ordered
// index is disabled — SCAN queries then answer StatusError.
type RangeScanner interface {
	NewScanner() LiveScanner
}

// LiveStoreMetrics is an optional LiveStore extension supplying the workload
// counters the adaptation profile cannot measure per batch.
type LiveStoreMetrics interface {
	// LiveMetrics returns the live object count, cumulative evictions, and
	// the cumulative average cuckoo buckets probed per index insert.
	LiveMetrics() (liveObjects, evictions uint64, avgInsertBuckets float64)
}

// LiveFrame is one client frame travelling through the live pipeline. The
// submitter fills Queries, ParseNanos and Ctx; the WR stage fills Resps; the
// Done callback receives the frame after its batch's last stage.
type LiveFrame struct {
	// Queries must hold only valid ops (GET/SET/DELETE/SCAN — what the
	// server's parser admits): the response arena is recycled without clearing
	// on the strength of every valid op's response being written by its stage.
	Queries []proto.Query
	// Resps holds one response per query after the WR stage. Values alias
	// the batch's value arena and are only valid inside the Done callback.
	Resps []proto.Response
	// Err reports that this frame's execution died (a stage panicked on one
	// of its queries): Resps is empty and the client is answered by retry.
	Err bool
	// ParseNanos carries the submitter's measured RV+PP cost (socket read
	// and frame parse) so the profile's RV/SD unit costs are measured, not
	// assumed.
	ParseNanos int64
	// Ctx is the submitter's per-frame context, carried through untouched.
	Ctx any
}

// Defaults for LiveOptions zero fields.
const (
	DefaultLiveBatchInterval = 500 * time.Microsecond
	DefaultLiveMaxPending    = 4
	DefaultLiveMinBatch      = 64
	DefaultLiveMaxBatch      = 8192
	// DefaultWideMinGets is the GET count at which the planner starts to
	// credit the batched search with memory-level parallelism (the
	// INSearchMLP ramp in internal/costmodel); the benchmark's replay
	// (benchmark/replay.go) reads it as well. The runner has no threshold:
	// every batch's reads take the batched path.
	DefaultWideMinGets = 32
)

// liveMetricsRefresh bounds how often buildProfile polls LiveStoreMetrics:
// the poll takes every slab class lock to sum evictions, which is not worth
// paying per batch when adaptation reacts at workload-shift timescales.
const liveMetricsRefresh = 20 * time.Millisecond

// DefaultLiveConfig is the pipeline shape the live runner starts with when
// the provider has no opinion yet: Mega-KV's static partitioning. On a
// CPU-only host the "GPU" stage is simply the middle worker group; what the
// config controls is which group runs which tasks.
func DefaultLiveConfig() Config { return MegaKV() }

// LiveOptions configures a LiveRunner.
type LiveOptions struct {
	// Provider chooses the (config, batch size) installed at each batch
	// boundary; in-flight batches keep the config they were sealed with.
	// Defaults to a StaticProvider running DefaultLiveConfig.
	Provider ConfigProvider
	// BatchInterval bounds how long a partially-filled batch may wait before
	// it is sealed anyway. Default DefaultLiveBatchInterval.
	BatchInterval time.Duration
	// MaxPending bounds sealed batches queued ahead of each stage; Submit
	// rejects new work (shed upstream) when stage 1's queue is full.
	// Default DefaultLiveMaxPending.
	MaxPending int
	// Workers sets the goroutine count per stage group; entries ≤ 0 mean 1.
	Workers [3]int
	// OnBatchDone, when set, observes every completed batch after its frames
	// were delivered. The *Batch is recycled after the callback returns;
	// copy what outlives it.
	OnBatchDone func(*Batch)
	// Done delivers each completed frame (the SD task). It runs on a stage
	// worker, so it must not block indefinitely.
	Done func(*LiveFrame)
	// DoneBatch, when set, replaces Done: it is called once per completed
	// batch with the batch's frames in submission order, letting the
	// consumer amortize per-frame delivery costs (e.g. one batched send
	// syscall for all response datagrams). The slice is reused by the
	// runner; the consumer must not retain it. One of Done / DoneBatch is
	// required.
	DoneBatch func(frames []*LiveFrame)
	// LogBatch, when set, is the durability tier's LG task: it runs once per
	// completed batch, after the WR stage and before frame delivery, and
	// group-commits the batch's write-ahead-log records. It returns the
	// record and byte counts it committed so the batch profile can expose
	// logging cost (LGRecordsPerQuery / LGSeqBytes / LGUnitNanos) to the
	// planner. A frame the callback poisons (via its Ctx) is still delivered
	// to DoneBatch, which decides not to ack it.
	LogBatch func(frames []*LiveFrame) (records, bytes int)
}

// liveBatch is a Batch in flight through the live stage groups, plus the
// arenas its frames share. Queries are never copied out of their frames: the
// stages iterate each frame's own slice, and b.b.Queries stays empty (the
// provider reads only Batch.Times and Batch.Profile).
type liveBatch struct {
	b      Batch
	frames []*LiveFrame
	// nq is the total query count across frames (the flattened length).
	nq int
	// frameOff[i] is the index of frames[i]'s first query in the shared
	// response arena.
	frameOff []int32

	// Gather arenas (reused): getKeys/getQ list every healthy frame's GET
	// keys and their query-arena indexes, in frame order (filled once per
	// batch by gatherGets); getOff[i] is the index of frames[i]'s first GET
	// in them. glo/ghi and vlo/vhi are the per-GET candidate and value spans
	// the batched store calls populate.
	gathered bool
	getKeys  [][]byte
	getQ     []int32
	getOff   []int32
	glo, ghi []int32
	vlo, vhi []int32

	// cands is the IN(Search) result arena; GET j's candidates live at
	// cands[glo[j]:ghi[j]]. Valid only when searched is set: when the config
	// fuses IN(Search) into the KC stage the search is skipped and the read
	// resolves each key in a single authoritative pass.
	searched bool
	cands    []cuckoo.Location
	// vals is the value arena the KC+RD stage appends into; resps holds one
	// response per query, partitioned to frames by the WR stage.
	vals  []byte
	resps []proto.Response

	// lastStage is the last stage the sealed config maps work onto; the
	// batch completes there instead of traversing empty stages (stamped by
	// sealLocked).
	lastStage Stage

	firstAt  time.Time
	sealedAt time.Time
	// taskNanos/taskUnits accumulate measured per-task cost and unit counts.
	taskNanos [task.NumTasks]int64
	taskUnits [task.NumTasks]int64

	gets, sets, dels   int
	setErrs            int
	keyBytes, valBytes int
	wireBytes          int
	parseNanos         int64
	lgBytes            int64
	// SCAN accounting: query count, entries returned, and result-block bytes.
	// Kept apart from valBytes so the profile's ValueSize (a point-op average)
	// is not skewed by streaming range reads.
	scans, scanEntries, scanBytes int
}

func (b *liveBatch) reset() {
	b.b = Batch{}
	b.frames = b.frames[:0]
	b.nq = 0
	b.frameOff = b.frameOff[:0]
	b.gathered = false
	b.getKeys = b.getKeys[:0]
	b.getQ = b.getQ[:0]
	b.getOff = b.getOff[:0]
	b.glo, b.ghi = b.glo[:0], b.ghi[:0]
	b.vlo, b.vhi = b.vlo[:0], b.vhi[:0]
	b.searched = false
	b.cands = b.cands[:0]
	b.vals = b.vals[:0]
	b.resps = b.resps[:0]
	b.firstAt, b.sealedAt = time.Time{}, time.Time{}
	b.taskNanos = [task.NumTasks]int64{}
	b.taskUnits = [task.NumTasks]int64{}
	b.gets, b.sets, b.dels, b.setErrs = 0, 0, 0, 0
	b.keyBytes, b.valBytes, b.wireBytes = 0, 0, 0
	b.parseNanos = 0
	b.lgBytes = 0
	b.scans, b.scanEntries, b.scanBytes = 0, 0, 0
}

// prepare sizes the response arena once the batch is sealed (run by the
// first stage worker, off the submitter's hot path). Reused entries are NOT
// cleared: every valid op's response is fully assigned by exactly one stage
// (runWrites/runReads/runScans), and poisoned frames never deliver theirs —
// which is why LiveFrame.Queries must only hold parser-validated ops.
func (b *liveBatch) prepare() {
	n := b.nq
	if cap(b.resps) < n {
		b.resps = make([]proto.Response, n)
	} else {
		b.resps = b.resps[:n]
	}
}

func sizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// frameRange returns the half-open arena index range of frame fi.
func (b *liveBatch) frameRange(fi int) (int, int) {
	lo := int(b.frameOff[fi])
	hi := b.nq
	if fi+1 < len(b.frameOff) {
		hi = int(b.frameOff[fi+1])
	}
	return lo, hi
}

// LiveRunner executes the real serving path as DIDO's batched, staged
// pipeline: submitted frames accumulate into a pending batch; sealing stamps
// the currently-installed (Config, size) pair into the batch; three stage
// worker groups execute each batch's tasks under its own sealed config; and
// at every batch boundary the ConfigProvider may install a new pair for
// future batches — in-flight batches always complete under the scheme they
// started with (§III-B1).
//
// Submit must not be called concurrently with or after Close.
type LiveRunner struct {
	store LiveStore
	opts  LiveOptions
	// wantProfile is false when the provider declared (via ProfileConsumer)
	// that it never reads Batch.Profile; buildProfile is skipped then.
	wantProfile bool

	mu      sync.Mutex // guards pending, cfg, target, seq, closed
	pending *liveBatch
	cfg     Config
	target  int
	seq     uint64
	closed  bool

	provMu sync.Mutex // serializes provider calls across stage-3 workers
	// LiveMetrics cache (under provMu): buildProfile refreshes it at most
	// every liveMetricsRefresh and reuses the cached values in between.
	lastEvic         uint64 // cumulative eviction count at the last poll
	metricsAt        time.Time
	setsSinceMetrics int
	cachedPop        uint64
	cachedEvicRate   float64
	cachedAvgIns     float64

	ch        [3]chan *liveBatch
	stageWG   [3]sync.WaitGroup
	flushStop chan struct{}
	flushDone chan struct{}
	drained   chan struct{}
	// stage1Inflight counts batches that have been sealed but have not yet
	// finished stage-1 execution. It is incremented inside sealLocked (under
	// mu) and decremented by the stage-1 worker only after the batch has left
	// the stage, so there is no instant at which a batch is neither queued
	// nor counted — the window the old two-part check (len(ch[0])==0 &&
	// busy==0) left open between a worker's channel receive and its busy
	// increment, during which Submit would seal degenerate one-frame batches.
	// Zero means stage 1 is genuinely starving and the pending batch should
	// seal now instead of waiting out the flush interval.
	stage1Inflight atomic.Int32

	// testStage1Dequeued, when set by a test, runs on the stage-1 worker
	// immediately after a batch is received from ch[0] — the exact point the
	// historical idle-detection race lived at (the busy flag was incremented
	// only after the receive returned). The regression test parks the worker
	// here and asserts concurrent Submits keep coalescing.
	testStage1Dequeued func()

	pool sync.Pool // *liveBatch

	batches   stats.Counter
	queries   stats.Counter
	panics    stats.Counter
	reconfigs stats.Counter
	shedFull  stats.Counter

	stageHist [3]*stats.Histogram             // per-batch stage wall time, µs
	taskHist  [task.NumTasks]*stats.Histogram // per-unit task cost, ns
}

// NewLiveRunner starts a live runner over s: its stage workers and batch
// flusher run from construction until Close.
func NewLiveRunner(s LiveStore, opts LiveOptions) *LiveRunner {
	if opts.Done == nil && opts.DoneBatch == nil {
		panic("pipeline: one of LiveOptions.Done / DoneBatch is required")
	}
	if opts.BatchInterval <= 0 {
		opts.BatchInterval = DefaultLiveBatchInterval
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = DefaultLiveMaxPending
	}
	if opts.Provider == nil {
		opts.Provider = &StaticProvider{
			Config:   DefaultLiveConfig(),
			Interval: opts.BatchInterval,
			MinBatch: DefaultLiveMinBatch,
			MaxBatch: DefaultLiveMaxBatch,
		}
	}
	for i := range opts.Workers {
		if opts.Workers[i] <= 0 {
			opts.Workers[i] = 1
		}
	}
	r := &LiveRunner{
		store:       s,
		opts:        opts,
		wantProfile: true,
		flushStop:   make(chan struct{}),
		flushDone:   make(chan struct{}),
		drained:     make(chan struct{}),
	}
	if pc, ok := opts.Provider.(ProfileConsumer); ok {
		r.wantProfile = pc.WantsProfile()
	}
	r.cfg, r.target = opts.Provider.NextConfig(nil)
	if r.target < 1 {
		r.target = 1
	}
	r.pool.New = func() any { return &liveBatch{} }
	for si := 0; si < 3; si++ {
		r.ch[si] = make(chan *liveBatch, opts.MaxPending)
		r.stageHist[si] = stats.NewHistogram(stats.LatencyBoundsMicros()...)
		r.stageWG[si].Add(opts.Workers[si])
		for w := 0; w < opts.Workers[si]; w++ {
			go r.stageWorker(si)
		}
	}
	for t := range r.taskHist {
		r.taskHist[t] = stats.NewHistogram(stats.UnitCostBoundsNanos()...)
	}
	go r.flusher()
	return r
}

// Submit hands a parsed frame to the pipeline. It reports false when the
// runner is closed or saturated (every stage-1 slot already holds a sealed
// batch); the caller sheds the frame upstream (StatusBusy), which keeps
// admission latency bounded.
func (r *LiveRunner) Submit(f *LiveFrame) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	if r.pending == nil {
		if len(r.ch[0]) == cap(r.ch[0]) {
			r.mu.Unlock()
			r.shedFull.Inc()
			return false
		}
		b := r.pool.Get().(*liveBatch)
		b.reset()
		r.pending = b
	}
	b := r.pending
	if len(b.frames) == 0 {
		b.firstAt = time.Now()
	}
	b.frameOff = append(b.frameOff, int32(b.nq))
	b.frames = append(b.frames, f)
	b.nq += len(f.Queries)
	b.parseNanos += f.ParseNanos
	var sealed *liveBatch
	// Seal at the size target — or immediately when stage 1 is starving
	// (no sealed batch queued or executing): batching only pays while the
	// pipeline is busy, and making an idle stage wait for the flush tick
	// would trade latency AND throughput for nothing (adaptive batching).
	// The timer below remains the bound for frames that arrive while stage 1
	// is busy. stage1Inflight covers a batch from seal to end of stage-1
	// execution, so "busy" here cannot miss a batch mid-handoff.
	if b.nq >= r.target || r.stage1Inflight.Load() == 0 {
		sealed = r.sealLocked()
	}
	r.mu.Unlock()
	if sealed != nil {
		r.dispatch(sealed)
	}
	return true
}

// sealLocked stamps the pending batch with the installed config and removes
// it from accumulation. The config travels with the batch from here on: a
// reconfiguration at a later batch boundary never touches it.
func (r *LiveRunner) sealLocked() *liveBatch {
	b := r.pending
	r.pending = nil
	b.b.Seq = r.seq
	r.seq++
	b.b.Config = r.cfg
	b.lastStage = lastLiveStage(r.cfg)
	b.sealedAt = time.Now()
	// Counted from this instant: the batch is stage-1 work whether it is
	// still awaiting dispatch, queued, or executing (see stage1Inflight).
	r.stage1Inflight.Add(1)
	return b
}

// lastLiveStage returns the last stage cfg maps any executable task onto.
// Later stages would be pure pass-through — two channel handoffs and two
// goroutine wakeups for nothing — so the runner completes the batch at this
// stage instead. SD (frame delivery) runs in complete wherever that is.
func lastLiveStage(c Config) Stage {
	if c.GPUDepth == 0 {
		return StageCPUPre // single CPU stage runs everything
	}
	if c.GPUDepth >= MaxGPUDepth {
		return StageGPU // WR moved to the GPU: CPU-post would be empty
	}
	return StageCPUPost
}

// dispatch may block when stage 1's queue is momentarily full; total work is
// bounded by the server's admission tokens, and Submit refuses to open a new
// batch while the queue is full, so the wait is short and deadlock-free
// (stage workers never call back into Submit).
func (r *LiveRunner) dispatch(b *liveBatch) { r.ch[0] <- b }

// trySealIdle seals the pending batch when stage 1 has gone idle (nothing
// queued, no worker executing). Called by stage-1 workers after handing off a
// batch: frames that arrived while the stage was busy start immediately
// instead of waiting for the next Submit or flush tick.
func (r *LiveRunner) trySealIdle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.pending == nil || len(r.pending.frames) == 0 ||
		r.stage1Inflight.Load() != 0 {
		return
	}
	sealed := r.sealLocked()
	select {
	case r.ch[0] <- sealed:
	default:
		// Lost the queue slot to a concurrent dispatch (Submit or the
		// flusher, which send outside the lock). Revert the seal — stage 1
		// has work again, so the batch can keep accumulating. The revert
		// must undo everything sealLocked stamped: the seq (numbers stay
		// dense), the inflight count, and the config/stage/time stamps —
		// the eventual real seal restamps them, and Batch.Wall must be
		// measured from that final seal, not this aborted one.
		r.seq--
		r.stage1Inflight.Add(-1)
		sealed.b.Seq = 0
		sealed.b.Config = Config{}
		sealed.lastStage = 0
		sealed.sealedAt = time.Time{}
		r.pending = sealed
	}
}

// flusher seals partially-filled batches on a BatchInterval cadence, so a
// trickle of traffic is never parked waiting for a full batch.
func (r *LiveRunner) flusher() {
	defer close(r.flushDone)
	t := time.NewTicker(r.opts.BatchInterval)
	defer t.Stop()
	for {
		select {
		case <-r.flushStop:
			return
		case <-t.C:
			r.mu.Lock()
			var sealed *liveBatch
			if !r.closed && r.pending != nil && len(r.pending.frames) > 0 {
				sealed = r.sealLocked()
			}
			r.mu.Unlock()
			if sealed != nil {
				r.dispatch(sealed)
			}
		}
	}
}

func (r *LiveRunner) stageWorker(si int) {
	defer r.stageWG[si].Done()
	for b := range r.ch[si] {
		if si == 0 && r.testStage1Dequeued != nil {
			r.testStage1Dequeued()
		}
		start := time.Now()
		r.runStage(b, Stage(si))
		d := time.Since(start)
		b.b.Times.Dur[si] = d
		if d > b.b.Times.Tmax {
			b.b.Times.Tmax = d
		}
		r.stageHist[si].Observe(float64(d) / float64(time.Microsecond))
		if si < 2 && Stage(si) < b.lastStage {
			r.ch[si+1] <- b
		} else {
			r.complete(b)
		}
		if si == 0 {
			// The batch has fully left stage 1: only now does it stop
			// counting as inflight (it was counted from its seal, closing
			// the historical dequeue-to-busy race window). If that starved
			// the stage, promote whatever accumulated meanwhile instead of
			// letting it wait out the flush tick with an idle worker.
			r.stage1Inflight.Add(-1)
			r.trySealIdle()
		}
	}
}

// runStage executes the tasks b's sealed config maps onto stage s, in
// pipeline order: Search, then index writes, then the fused KC+RD, then WR.
// The config invariants guarantee a batch's index writes execute before its
// reads and its searches no later than its reads, so within one batch a GET
// observes the batch's SETs (stale candidates fall back to the authoritative
// lookup) — see DESIGN.md §5.10 for the intra-batch ordering contract. A
// batch sealed with a WorkStealing config runs exactly like fixed assignment:
// stealing is the simulator's (exec.go), not the live runner's.
func (r *LiveRunner) runStage(b *liveBatch, s Stage) {
	cfg := b.b.Config
	if s == StageCPUPre {
		b.prepare()
		// RV/PP already happened at the submitter; book their measured cost.
		b.taskNanos[task.RV] += b.parseNanos
		b.taskUnits[task.RV] += int64(b.nq)
	}
	// When the config puts IN(Search) and KC on the same stage the separate
	// candidate collection would walk the index twice per GET for nothing:
	// skip it and let GetBatch resolve each key in one pass (the fused-read
	// counterpart of the KC+RD fusion).
	if cfg.StageOf(task.INSearch) == s && cfg.StageOf(task.KC) != s {
		r.runSearch(b)
	}
	if sets, dels := cfg.StageOf(task.INInsert) == s, cfg.StageOf(task.INDelete) == s; sets || dels {
		r.runWrites(b, sets, dels)
	}
	if cfg.StageOf(task.KC) == s {
		r.runReads(b)
	}
	// SC runs after the batch's point reads on its assigned stage (CPU-pre or
	// GPU — never CPU-post, so lastLiveStage needs no SC case). All of a
	// batch's scans share one snapshot capture.
	if cfg.StageOf(task.SC) == s {
		r.runScans(b)
	}
	if cfg.StageOf(task.WR) == s {
		r.runRespond(b)
	}
}

// eachFrame applies fn to every healthy frame, containing panics per frame:
// a panicking frame is marked Err and skipped by later stages, so one
// poisoned query cannot take down its batchmates.
func (r *LiveRunner) eachFrame(b *liveBatch, fn func(fi int, f *LiveFrame)) {
	for fi, f := range b.frames {
		if f.Err {
			continue
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					f.Err = true
					r.panics.Inc()
				}
			}()
			fn(fi, f)
		}()
	}
}

// taskStart returns the start time for a per-task cost measurement, or the
// zero time when no provider consumes profiles — the clock reads and per-task
// bookkeeping are pure overhead then.
func (r *LiveRunner) taskStart() time.Time {
	if r.wantProfile {
		return time.Now()
	}
	return time.Time{}
}

// taskDone books a task's unit count and (when measuring) its elapsed cost.
func (b *liveBatch) taskDone(id task.ID, start time.Time, units int) {
	b.taskUnits[id] += int64(units)
	if !start.IsZero() {
		b.taskNanos[id] += time.Since(start).Nanoseconds()
	}
}

// gatherGets lists every healthy frame's GET keys (and their query-arena
// indexes) into the batch's gather arenas, once per batch. This is the
// scatter/gather step that turns the frame-structured batch into the flat key
// vector the batched store calls consume.
func (b *liveBatch) gatherGets() {
	if b.gathered {
		return
	}
	b.gathered = true
	for fi, f := range b.frames {
		b.getOff = append(b.getOff, int32(len(b.getKeys)))
		if f.Err {
			continue
		}
		lo := int(b.frameOff[fi])
		for i := range f.Queries {
			if f.Queries[i].Op != proto.OpGet {
				continue
			}
			b.getKeys = append(b.getKeys, f.Queries[i].Key)
			b.getQ = append(b.getQ, int32(lo+i))
		}
	}
}

// getRange returns the half-open gather index range of frame fi's GETs.
func (b *liveBatch) getRange(fi int) (int, int) {
	lo := int(b.getOff[fi])
	hi := len(b.getKeys)
	if fi+1 < len(b.getOff) {
		hi = int(b.getOff[fi+1])
	}
	return lo, hi
}

// eachGets runs fn over all of the batch's gathered GETs, [0, n), as one
// batched store call. If that call panics it reruns fn frame by frame over
// each healthy frame's own GETs inside eachFrame, so the frame holding the
// poisoned key is marked Err while its batchmates are still answered by the
// same batched call. fn must book its results only after its store call
// returns, so a panicked call leaves nothing half-counted. It reports
// whether the frame-by-frame rerun happened.
func (r *LiveRunner) eachGets(b *liveBatch, fn func(j0, j1 int)) (reran bool) {
	n := len(b.getKeys)
	if n == 0 {
		return false
	}
	if func() (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		fn(0, n)
		return true
	}() {
		return false
	}
	r.eachFrame(b, func(fi int, _ *LiveFrame) {
		if j0, j1 := b.getRange(fi); j0 < j1 {
			fn(j0, j1)
		}
	})
	return true
}

// runSearch performs IN(Search) for every GET in one SearchBatch call,
// collecting candidate spans into the batch's shared arena.
func (r *LiveRunner) runSearch(b *liveBatch) {
	start := r.taskStart()
	b.gatherGets()
	ng := len(b.getKeys)
	b.searched = true
	b.glo = sizeI32(b.glo, ng)
	b.ghi = sizeI32(b.ghi, ng)
	if r.eachGets(b, func(j0, j1 int) {
		b.cands = r.store.SearchBatch(b.getKeys[j0:j1], b.cands, b.glo[j0:j1], b.ghi[j0:j1])
	}) {
		// A poisoned frame's spans may be half written by its failed call;
		// empty them so the read stage's batch-wide call stays in bounds.
		for fi, f := range b.frames {
			if f.Err {
				j0, j1 := b.getRange(fi)
				clear(b.glo[j0:j1])
				clear(b.ghi[j0:j1])
			}
		}
	}
	b.taskDone(task.INSearch, start, ng)
}

// runWrites performs the batch's index writes in one pass over its queries:
// every SET's composite MM + IN.Insert + IN.Delete when sets is set, every
// DELETE's IN.Delete when dels is set (each flag says whether the config
// maps that task onto the running stage). Measured pass time is split
// between the two tasks by unit count.
func (r *LiveRunner) runWrites(b *liveBatch, sets, dels bool) {
	start := r.taskStart()
	nsets, ndels := 0, 0
	r.eachFrame(b, func(fi int, f *LiveFrame) {
		lo := int(b.frameOff[fi])
		for i := range f.Queries {
			q := &f.Queries[i]
			switch {
			case q.Op == proto.OpSet && sets:
				nsets++
				b.keyBytes += len(q.Key)
				b.valBytes += len(q.Value)
				if r.wantProfile {
					b.wireBytes += proto.EncodedQueryLen(*q)
				}
				if err := r.store.Set(q.Key, q.Value); err != nil {
					b.resps[lo+i] = proto.Response{Status: proto.StatusError}
					b.setErrs++
				} else {
					b.resps[lo+i] = proto.Response{Status: proto.StatusOK}
				}
			case q.Op == proto.OpDelete && dels:
				ndels++
				b.keyBytes += len(q.Key)
				if r.wantProfile {
					b.wireBytes += proto.EncodedQueryLen(*q)
				}
				if r.store.Delete(q.Key) {
					b.resps[lo+i] = proto.Response{Status: proto.StatusOK}
				} else {
					b.resps[lo+i] = proto.Response{Status: proto.StatusNotFound}
				}
			}
		}
	})
	b.sets += nsets
	b.dels += ndels
	if !start.IsZero() && nsets+ndels > 0 {
		nanos := time.Since(start).Nanoseconds()
		b.taskNanos[task.INInsert] += nanos * int64(nsets) / int64(nsets+ndels)
		b.taskNanos[task.INDelete] += nanos * int64(ndels) / int64(nsets+ndels)
	}
	b.taskUnits[task.INInsert] += int64(nsets)
	b.taskUnits[task.INDelete] += int64(ndels)
}

// runReads performs the fused KC+RD for every GET in one batched store call
// — ReadCandidatesBatch over the search stage's candidate spans, or the fully
// fused GetBatch when the search was skipped — and scatters values,
// responses and accounting back per query. Growing the value arena keeps
// earlier backing arrays alive, so responses already built remain valid for
// the batch's lifetime.
func (r *LiveRunner) runReads(b *liveBatch) {
	start := r.taskStart()
	b.gatherGets()
	gets := b.gets
	b.vlo = sizeI32(b.vlo, len(b.getKeys))
	b.vhi = sizeI32(b.vhi, len(b.getKeys))
	r.eachGets(b, func(j0, j1 int) { r.readGets(b, j0, j1) })
	b.taskDone(task.KC, start, b.gets-gets)
}

// readGets reads gathered GETs [j0, j1) in one store call, then books them.
func (r *LiveRunner) readGets(b *liveBatch, j0, j1 int) {
	keys := b.getKeys[j0:j1]
	vlo, vhi := b.vlo[j0:j1], b.vhi[j0:j1]
	var hits int
	if b.searched {
		b.vals, hits = r.store.ReadCandidatesBatch(keys, b.cands, b.glo[j0:j1], b.ghi[j0:j1], b.vals, vlo, vhi)
	} else {
		b.vals, hits = r.store.GetBatch(keys, b.vals, vlo, vhi)
	}
	for j, k := range keys {
		b.keyBytes += len(k)
		if r.wantProfile {
			b.wireBytes += proto.EncodedQueryLen(proto.Query{Op: proto.OpGet, Key: k})
		}
		q := b.getQ[j0+j]
		if vlo[j] >= 0 {
			v := b.vals[vlo[j]:vhi[j]:vhi[j]]
			b.resps[q] = proto.Response{Status: proto.StatusOK, Value: v}
			b.valBytes += len(v)
		} else {
			b.resps[q] = proto.Response{Status: proto.StatusNotFound}
		}
	}
	b.gets += len(keys)
	b.b.Hits += hits
	b.b.Misses += len(keys) - hits
}

// runScans performs SC for every SCAN in the batch as one batched range
// merge: the first scan captures a Scanner (one MVCC snapshot of every
// shard's ordered index) and every scan in the batch runs against it, so a
// batch observes a single key-set version. Result blocks are built directly
// in the value arena (same lifetime contract as the KC+RD values). Without a
// RangeScanner store — or with the ordered index disabled — every SCAN
// answers StatusError, keeping the never-cleared response arena sound.
func (r *LiveRunner) runScans(b *liveBatch) {
	start := r.taskStart()
	var sc LiveScanner
	scannerTried := false
	units := 0
	r.eachFrame(b, func(fi int, f *LiveFrame) {
		lo := int(b.frameOff[fi])
		for i := range f.Queries {
			q := &f.Queries[i]
			if q.Op != proto.OpScan {
				continue
			}
			units++
			b.keyBytes += len(q.Key)
			if r.wantProfile {
				b.wireBytes += proto.EncodedQueryLen(*q)
			}
			limit, end, err := proto.ParseScanArg(q.Value)
			if err != nil {
				b.resps[lo+i] = proto.Response{Status: proto.StatusError}
				continue
			}
			if !scannerTried {
				scannerTried = true
				if rs, ok := r.store.(RangeScanner); ok {
					sc = rs.NewScanner()
				}
			}
			if sc == nil {
				b.resps[lo+i] = proto.Response{Status: proto.StatusError}
				continue
			}
			blockStart := len(b.vals)
			dst, mark := proto.BeginScanResult(b.vals)
			entries := 0
			sc.Scan(q.Key, end, limit, func(k, v []byte) bool {
				dst = proto.AppendScanEntry(dst, k, v)
				entries++
				return len(dst)-blockStart < proto.MaxScanResultBytes
			})
			proto.FinishScanResult(dst, mark, entries)
			b.vals = dst
			block := b.vals[blockStart:len(b.vals):len(b.vals)]
			b.resps[lo+i] = proto.Response{Status: proto.StatusOK, Value: block}
			b.scanEntries += entries
			b.scanBytes += len(block)
		}
	})
	b.scans += units
	b.taskDone(task.SC, start, units)
}

// runRespond is WR: partition the response arena back to the frames.
func (r *LiveRunner) runRespond(b *liveBatch) {
	start := r.taskStart()
	r.eachFrame(b, func(fi int, f *LiveFrame) {
		lo, hi := b.frameRange(fi)
		f.Resps = b.resps[lo:hi:hi]
	})
	b.taskDone(task.WR, start, b.nq)
}

// complete delivers b's frames (the SD task), measures the batch profile,
// consults the provider, installs the returned (config, size) pair for
// future seals, and recycles the batch.
func (r *LiveRunner) complete(b *liveBatch) {
	if r.opts.LogBatch != nil {
		lgStart := r.taskStart()
		records, bytes := r.opts.LogBatch(b.frames)
		b.taskDone(task.LG, lgStart, records)
		b.lgBytes += int64(bytes)
	}
	sdStart := r.taskStart()
	if r.opts.DoneBatch != nil {
		r.opts.DoneBatch(b.frames)
	} else {
		for _, f := range b.frames {
			r.opts.Done(f)
		}
	}
	b.taskDone(task.SD, sdStart, len(b.frames))
	b.b.Wall = time.Since(b.sealedAt)

	r.batches.Inc()
	r.queries.Add(uint64(b.nq))
	if r.wantProfile {
		for id := 0; id < task.NumTasks; id++ {
			if b.taskUnits[id] > 0 {
				r.taskHist[id].Observe(float64(b.taskNanos[id]) / float64(b.taskUnits[id]))
			}
		}
	}

	// The provider is consulted one batch at a time (it keeps state), and
	// the installed pair takes effect at the next seal — never on batches
	// already in flight.
	r.provMu.Lock()
	if r.wantProfile {
		r.buildProfile(b)
	}
	cfg, n := r.opts.Provider.NextConfig(&b.b)
	r.provMu.Unlock()
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	if cfg != r.cfg {
		r.reconfigs.Inc()
	}
	r.cfg, r.target = cfg, n
	r.mu.Unlock()

	if r.opts.OnBatchDone != nil {
		r.opts.OnBatchDone(&b.b)
	}
	for i := range b.frames {
		b.frames[i] = nil
	}
	for i := range b.getKeys {
		b.getKeys[i] = nil // key bytes belong to the delivered frames
	}
	r.pool.Put(b)
}

// buildProfile fills b.b.Profile with the workload characteristics measured
// while executing the batch — the live analogue of the simulated executor's
// runSemantics, feeding the same planner. Caller holds provMu (the eviction
// delta is stateful).
func (r *LiveRunner) buildProfile(b *liveBatch) {
	n := b.nq
	p := task.Profile{N: n, SearchProbes: cuckoo.SearchProbesTheoretical(2)}
	if n > 0 {
		p.GetRatio = float64(b.gets) / float64(n)
		p.ScanRatio = float64(b.scans) / float64(n)
	}
	if b.scans > 0 {
		p.ScanEntries = float64(b.scanEntries) / float64(b.scans)
	}
	if b.scanEntries > 0 {
		p.ScanEntryBytes = float64(b.scanBytes) / float64(b.scanEntries)
	}
	if ops := b.gets + b.sets + b.dels + b.scans; ops > 0 {
		p.KeySize = float64(b.keyBytes) / float64(ops)
	}
	if reads := b.b.Hits + b.sets; reads > 0 {
		p.ValueSize = float64(b.valBytes) / float64(reads)
	}
	// wireBytes was accumulated by the op loops (the queries live in frames
	// already recycled by the SD delivery above, so it cannot be recomputed
	// here); it covers only ops the stages visited, which is every query of
	// every healthy frame.
	if ops := b.gets + b.sets + b.dels + b.scans; ops > 0 {
		p.WireQueryBytes = float64(b.wireBytes) / float64(ops)
	}
	if b.taskUnits[task.RV] > 0 {
		p.RVUnitNanos = float64(b.taskNanos[task.RV]) / float64(b.taskUnits[task.RV])
	}
	if b.taskUnits[task.SD] > 0 && n > 0 {
		p.SDUnitNanos = float64(b.taskNanos[task.SD]) / float64(n)
	}
	if lg := b.taskUnits[task.LG]; lg > 0 && n > 0 {
		p.LGRecordsPerQuery = float64(lg) / float64(n)
		p.LGSeqBytes = float64(b.lgBytes) / float64(lg)
		p.LGUnitNanos = float64(b.taskNanos[task.LG]) / float64(lg)
	}
	if m, ok := r.store.(LiveStoreMetrics); ok {
		r.setsSinceMetrics += b.sets
		if r.metricsAt.IsZero() || time.Since(r.metricsAt) >= liveMetricsRefresh {
			live, evic, avgIns := m.LiveMetrics()
			r.cachedPop = live
			r.cachedAvgIns = avgIns
			if r.setsSinceMetrics > 0 && evic >= r.lastEvic {
				r.cachedEvicRate = float64(evic-r.lastEvic) / float64(r.setsSinceMetrics)
				if r.cachedEvicRate > 1 {
					r.cachedEvicRate = 1
				}
			}
			r.lastEvic = evic
			r.setsSinceMetrics = 0
			r.metricsAt = time.Now()
		}
		p.Population = r.cachedPop
		p.AvgInsertBuckets = r.cachedAvgIns
		p.EvictionRate = r.cachedEvicRate
	}
	if p.AvgInsertBuckets == 0 {
		p.AvgInsertBuckets = 2 // analytic floor before any insert was measured
	}
	b.b.Profile = p
}

// Close seals whatever is pending, drains every in-flight batch through the
// stages (their frames are still delivered), and stops the workers. It must
// not race Submit: the server stops admitting and drains its frames first.
func (r *LiveRunner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.drained
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.flushStop)
	<-r.flushDone
	r.mu.Lock()
	var sealed *liveBatch
	if r.pending != nil {
		if len(r.pending.frames) > 0 {
			sealed = r.sealLocked()
		} else {
			r.pool.Put(r.pending)
			r.pending = nil
		}
	}
	r.mu.Unlock()
	if sealed != nil {
		r.dispatch(sealed)
	}
	for si := 0; si < 3; si++ {
		close(r.ch[si])
		r.stageWG[si].Wait()
	}
	close(r.drained)
}

// LiveStats is a snapshot of the live runner's counters. Fields are each
// individually monotonic, not a consistent cut.
type LiveStats struct {
	// Batches and Queries count completed batches and the queries in them.
	Batches, Queries uint64
	// Panics counts frames poisoned inside a stage (contained per frame).
	Panics uint64
	// Reconfigs counts batch boundaries that installed a different config.
	Reconfigs uint64
	// SubmitShed counts frames rejected because every stage-1 slot was full.
	SubmitShed uint64
	// Config and Target are the currently installed config and batch size.
	Config Config
	Target int
}

// Stats returns current counters.
func (r *LiveRunner) Stats() LiveStats {
	r.mu.Lock()
	cfg, target := r.cfg, r.target
	r.mu.Unlock()
	return LiveStats{
		Batches:    r.batches.Load(),
		Queries:    r.queries.Load(),
		Panics:     r.panics.Load(),
		Reconfigs:  r.reconfigs.Load(),
		SubmitShed: r.shedFull.Load(),
		Config:     cfg,
		Target:     target,
	}
}

// WantsProfile reports whether the runner's provider consumes measured
// profiles; submitters may skip timing RV/PP (LiveFrame.ParseNanos) when it
// does not — two clock reads per frame nobody will read.
func (r *LiveRunner) WantsProfile() bool { return r.wantProfile }

// CurrentConfig returns the config that will be stamped into the next seal.
func (r *LiveRunner) CurrentConfig() Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg
}

// StageQuantiles returns, per stage, the given quantiles of per-batch wall
// time in microseconds (each stage's values from one consistent snapshot).
func (r *LiveRunner) StageQuantiles(qs ...float64) [3][]float64 {
	var out [3][]float64
	for si := 0; si < 3; si++ {
		out[si] = r.stageHist[si].Quantiles(qs...)
	}
	return out
}

// StageHistogram exposes the per-batch wall-time histogram of stage s (µs).
func (r *LiveRunner) StageHistogram(s Stage) *stats.Histogram { return r.stageHist[s] }

// TaskHistogram exposes the measured per-unit cost histogram of task id (ns
// per query for IN/KC/WR, ns per frame for SD).
func (r *LiveRunner) TaskHistogram(id task.ID) *stats.Histogram { return r.taskHist[id] }
