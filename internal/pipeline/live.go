package pipeline

import (
	"sync"
	"time"

	"repro/internal/cuckoo"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/task"
)

// This file is the live (wall-clock) counterpart of the simulated system's
// runner (internal/dido): the same Batch / Config / ConfigProvider
// abstractions, executed against a real store on one goroutine per stage
// group instead of priced on a simulated clock.
// RV/PP happen at the submitter (the server's socket reader parses the frame
// before Submit); IN(Search), IN(Insert), IN(Delete), the fused KC+RD, and
// WR run on whichever stage group the batch's sealed Config maps them to;
// SD is the DoneBatch callback delivering each batch's responses.

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
	// NewScanner captures one MVCC snapshot of the ordered index for the
	// SC task. It returns nil when the store has no ordered index
	// (store.Config.Ordered off); SCAN queries then answer StatusError.
	NewScanner() LiveScanner
}

// LiveScanner serves one batch's SCAN queries from a single MVCC snapshot
// capture: every scan in the batch reads the same tree version.
type LiveScanner interface {
	// ScanBatch runs one range scan per element of starts, all in one call:
	// scan i visits keys in [starts[i], ends[i]) in ascending order (an
	// empty end is unbounded), at most limits[i] of them (≤ 0: no limit),
	// calling fn(i, key, value) for each; fn returning false ends scan i
	// only. The scans run in order, each to its end before the next begins.
	// It returns the number of entries visited in all. The slices passed to
	// fn are reused between entries; fn must copy what it keeps.
	ScanBatch(starts, ends [][]byte, limits []int, fn func(i int, key, value []byte) bool) int
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
// DoneBatch callback receives the frame after its batch's last stage.
type LiveFrame struct {
	// Queries must hold only valid ops (GET/SET/DELETE/SCAN — what the
	// server's parser admits): the response arena is recycled without clearing
	// on the strength of every valid op's response being written by its stage.
	Queries []proto.Query
	// Resps holds one response per query after the WR stage. Values alias
	// the batch's value arena and are only valid inside the DoneBatch callback.
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

// Live runner defaults. DefaultLiveBatchInterval is the scheduling interval
// the default provider sizes batches for.
const (
	DefaultLiveBatchInterval = 500 * time.Microsecond
	DefaultLiveMinBatch      = 64
	DefaultLiveMaxBatch      = 8192
	// DefaultWideMinGets is the GET count at which the planner starts to
	// credit the batched search with memory-level parallelism (the
	// INSearchMLP ramp in internal/costmodel); the benchmark's replay
	// (benchmark/replay.go) reads it as well. The runner has no threshold:
	// every batch's reads take the batched path.
	DefaultWideMinGets = 32
)

// liveStageQueue is the channel depth ahead of stages 2 and 3: a few
// batches of slack let a stage run ahead of a briefly slower one without
// blocking on every handoff, and a deeper queue would only lengthen the
// wait between stages. A full channel holds back the stage before it, and
// frames that arrive meanwhile gather in the pending batch; it bounds no
// admission, which is the submitter's (the server's in-flight tokens).
const liveStageQueue = 4

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
	// Defaults to a StaticProvider running DefaultLiveConfig, sized for
	// DefaultLiveBatchInterval.
	Provider ConfigProvider
	// OnBatchDone, when set, observes every completed batch after its frames
	// were delivered. The *Batch is recycled after the callback returns;
	// copy what outlives it.
	OnBatchDone func(*Batch)
	// DoneBatch delivers each completed batch's frames in submission order
	// (the SD task), letting the consumer amortize per-frame delivery costs
	// (e.g. one batched send syscall for all response datagrams). It runs on
	// a stage worker, so it must not block indefinitely. The slice is reused
	// by the runner; the consumer must not retain it. Required.
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
	// batch by gather); getOff[i] is the index of frames[i]'s first GET
	// in them. glo/ghi and vlo/vhi are the per-GET candidate and value spans
	// the batched store calls populate.
	gathered bool
	getKeys  [][]byte
	getQ     []int32
	getOff   []int32
	glo, ghi []int32
	vlo, vhi []int32
	// The same for the SCANs whose argument parses: SCAN j covers
	// [scanStart[j], scanEnd[j]) up to scanLimit[j] entries, answers query
	// scanQ[j], and its result block ends at vals[scanHi[j]]. badScanQ lists
	// the SCANs whose argument does not parse.
	scanStart, scanEnd [][]byte
	scanLimit          []int
	scanQ, scanOff     []int32
	scanHi             []int32
	badScanQ           []int32

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

	sealedAt time.Time

	gets, sets, dels   int
	setErrs            int
	keyBytes, valBytes int
	wireBytes          int
	// parseNanos is the frames' summed RV+PP cost; sdNanos, lgNanos time the
	// SD delivery and the LG commit of the batch (measured only when the
	// provider reads profiles). lgRecords/lgBytes are what LG committed.
	parseNanos, sdNanos, lgNanos int64
	lgRecords, lgBytes           int64
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
	b.scanStart, b.scanEnd = b.scanStart[:0], b.scanEnd[:0]
	b.scanLimit = b.scanLimit[:0]
	b.scanQ, b.scanOff = b.scanQ[:0], b.scanOff[:0]
	b.badScanQ = b.badScanQ[:0]
	b.glo, b.ghi = b.glo[:0], b.ghi[:0]
	b.vlo, b.vhi = b.vlo[:0], b.vhi[:0]
	b.searched = false
	b.cands = b.cands[:0]
	b.vals = b.vals[:0]
	b.resps = b.resps[:0]
	b.sealedAt = time.Time{}
	b.gets, b.sets, b.dels, b.setErrs = 0, 0, 0, 0
	b.keyBytes, b.valBytes, b.wireBytes = 0, 0, 0
	b.parseNanos, b.sdNanos, b.lgNanos = 0, 0, 0
	b.lgRecords, b.lgBytes = 0, 0
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
// workers, one goroutine each, execute each batch's tasks under its own
// sealed config; and at every batch boundary the ConfigProvider may install
// a new pair for future batches — in-flight batches always complete under
// the scheme they started with (§III-B1).
//
// A batch seals in one of two places, both under mu: in Submit when it
// reaches the size target (it joins the ready list), or in take, when the
// stage-1 worker is free and nothing is ready (the pending batch seals as
// is). No timer seals: an idle stage 1 starts a lone frame at once, and every
// frame that arrives while stage 1 is busy joins the one batch it seals when
// it is free.
type LiveRunner struct {
	store LiveStore
	opts  LiveOptions
	// wantProfile is false when the provider declared (via ProfileConsumer)
	// that it never reads Batch.Profile; buildProfile is skipped then.
	wantProfile bool

	mu sync.Mutex // guards pending, ready, cfg, target, seq, closed
	// work wakes the stage-1 worker (waiting in take) on Submit and Close.
	work    *sync.Cond
	pending *liveBatch
	// ready holds size-sealed batches awaiting stage 1, oldest first. It has
	// no bound of its own: the submitter's admission (the server's in-flight
	// tokens) bounds the frames, and so the batches, that can wait in it.
	ready  []*liveBatch
	cfg    Config
	target int
	seq    uint64
	closed bool

	provMu sync.Mutex // serializes provider calls across the stage workers
	// LiveMetrics cache (under provMu): buildProfile refreshes it at most
	// every liveMetricsRefresh and reuses the cached values in between.
	lastEvic         uint64 // cumulative eviction count at the last poll
	metricsAt        time.Time
	setsSinceMetrics int
	cachedPop        uint64
	cachedEvicRate   float64
	cachedAvgIns     float64

	// ch[s] feeds stage s for s = 1, 2; stage 1 (index 0) takes its batches
	// from pending/ready instead, so ch[0] stays nil.
	ch      [3]chan *liveBatch
	stageWG [3]sync.WaitGroup
	drained chan struct{}

	// testStage1Dequeued, when set by a test, runs on the stage-1 worker
	// right after take returns a batch. The coalescing tests park the worker
	// here and assert that concurrent Submits accumulate into one batch.
	testStage1Dequeued func()

	pool sync.Pool // *liveBatch

	batches   stats.Counter
	queries   stats.Counter
	panics    stats.Counter
	reconfigs stats.Counter

	stageHist [3]*stats.Histogram // per-batch stage wall time, µs
}

// NewLiveRunner starts a live runner over s: its three stage workers run
// from construction until Close.
func NewLiveRunner(s LiveStore, opts LiveOptions) *LiveRunner {
	if opts.DoneBatch == nil {
		panic("pipeline: LiveOptions.DoneBatch is required")
	}
	if opts.Provider == nil {
		opts.Provider = &StaticProvider{
			Config:   DefaultLiveConfig(),
			Interval: DefaultLiveBatchInterval,
			MinBatch: DefaultLiveMinBatch,
			MaxBatch: DefaultLiveMaxBatch,
		}
	}
	r := &LiveRunner{
		store:       s,
		opts:        opts,
		wantProfile: true,
		drained:     make(chan struct{}),
	}
	r.work = sync.NewCond(&r.mu)
	if pc, ok := opts.Provider.(ProfileConsumer); ok {
		r.wantProfile = pc.WantsProfile()
	}
	r.cfg, r.target = opts.Provider.NextConfig(nil)
	if r.target < 1 {
		r.target = 1
	}
	r.pool.New = func() any { return &liveBatch{} }
	for si := 0; si < 3; si++ {
		if si > 0 {
			r.ch[si] = make(chan *liveBatch, liveStageQueue)
		}
		r.stageHist[si] = stats.NewHistogram(stats.LatencyBoundsMicros()...)
		r.stageWG[si].Add(1)
		go r.stageWorker(si)
	}
	return r
}

// Submit hands a parsed frame to the pipeline. The frame joins the pending
// batch, which seals into the ready list once it reaches the size target;
// otherwise the stage-1 worker seals it when it next takes work. The runner
// never refuses a frame for load: bounding the frames in flight is the
// submitter's admission (the server's in-flight tokens). Submit reports
// false only after Close.
func (r *LiveRunner) Submit(f *LiveFrame) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	if r.pending == nil {
		b := r.pool.Get().(*liveBatch)
		b.reset()
		r.pending = b
	}
	b := r.pending
	b.frameOff = append(b.frameOff, int32(b.nq))
	b.frames = append(b.frames, f)
	b.nq += len(f.Queries)
	b.parseNanos += f.ParseNanos
	if b.nq >= r.target {
		r.ready = append(r.ready, r.sealLocked())
	}
	r.work.Signal()
	r.mu.Unlock()
	return true
}

// take returns stage 1's next batch: the oldest ready batch, else the
// pending batch sealed now, else it waits for Submit or Close. It returns
// nil once the runner is closed and both are drained.
func (r *LiveRunner) take() *liveBatch {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if len(r.ready) > 0 {
			b := r.ready[0]
			n := copy(r.ready, r.ready[1:])
			r.ready[n] = nil
			r.ready = r.ready[:n]
			return b
		}
		if r.pending != nil {
			return r.sealLocked()
		}
		if r.closed {
			return nil
		}
		r.work.Wait()
	}
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

// next returns stage si's next batch, or nil once the stage has drained.
func (r *LiveRunner) next(si int) *liveBatch {
	if si > 0 {
		return <-r.ch[si] // nil once Close closed the channel
	}
	b := r.take()
	if b != nil && r.testStage1Dequeued != nil {
		r.testStage1Dequeued()
	}
	return b
}

func (r *LiveRunner) stageWorker(si int) {
	defer r.stageWG[si].Done()
	for b := r.next(si); b != nil; b = r.next(si) {
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
	}
}

// runStage executes the tasks b's sealed config maps onto stage s, in
// pipeline order: Search, then index writes, then the fused KC+RD, then WR.
// The config invariants guarantee a batch's index writes execute before its
// reads and its searches no later than its reads, so within one batch a GET
// observes the batch's SETs (stale candidates fall back to the authoritative
// lookup) — see DESIGN.md §5.10 for the intra-batch ordering contract. A
// batch sealed with a WorkStealing config runs exactly like fixed assignment:
// stealing is the simulator's (internal/dido), not the live runner's.
func (r *LiveRunner) runStage(b *liveBatch, s Stage) {
	cfg := b.b.Config
	if s == StageCPUPre {
		b.prepare()
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

// timed runs fn and returns its wall time in nanoseconds, or 0 without
// reading the clock when no provider consumes profiles.
func (r *LiveRunner) timed(fn func()) int64 {
	if !r.wantProfile {
		fn()
		return 0
	}
	start := time.Now()
	fn()
	return time.Since(start).Nanoseconds()
}

// gather lists every healthy frame's GET keys and SCAN ranges (and their
// query-arena indexes) into the batch's gather arenas, once per batch, and
// books the SCANs' counts and bytes. This is the scatter/gather step that
// turns the frame-structured batch into the flat vectors the batched store
// calls consume.
func (r *LiveRunner) gather(b *liveBatch) {
	if b.gathered {
		return
	}
	b.gathered = true
	for fi, f := range b.frames {
		b.getOff = append(b.getOff, int32(len(b.getKeys)))
		b.scanOff = append(b.scanOff, int32(len(b.scanQ)))
		if f.Err {
			continue
		}
		lo := int(b.frameOff[fi])
		for i := range f.Queries {
			q := &f.Queries[i]
			switch q.Op {
			case proto.OpGet:
				b.getKeys = append(b.getKeys, q.Key)
				b.getQ = append(b.getQ, int32(lo+i))
			case proto.OpScan:
				b.scans++
				b.keyBytes += len(q.Key)
				if r.wantProfile {
					b.wireBytes += proto.EncodedQueryLen(*q)
				}
				limit, end, err := proto.ParseScanArg(q.Value)
				if err != nil {
					b.badScanQ = append(b.badScanQ, int32(lo+i))
					continue
				}
				b.scanStart = append(b.scanStart, q.Key)
				b.scanEnd = append(b.scanEnd, end)
				b.scanLimit = append(b.scanLimit, limit)
				b.scanQ = append(b.scanQ, int32(lo+i))
			}
		}
	}
}

// gatheredRange returns the half-open gather index range of frame fi's
// entries in a gather arena of n entries whose per-frame offsets are off.
func gatheredRange(off []int32, n, fi int) (int, int) {
	hi := n
	if fi+1 < len(off) {
		hi = int(off[fi+1])
	}
	return int(off[fi]), hi
}

// eachGathered runs fn over all n of the batch's gathered GETs or SCANs, [0,
// n), as one batched store call. If that call panics it reruns fn frame by
// frame over each healthy frame's own entries (per-frame offsets off) inside
// eachFrame, so the frame holding the poisoned query is marked Err while its
// batchmates are still answered by the same batched call. fn must book its
// results only after its store call returns, so a panicked call leaves
// nothing half-counted. It reports whether the frame-by-frame rerun
// happened.
func (r *LiveRunner) eachGathered(b *liveBatch, off []int32, n int, fn func(j0, j1 int)) (reran bool) {
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
		if j0, j1 := gatheredRange(off, n, fi); j0 < j1 {
			fn(j0, j1)
		}
	})
	return true
}

// runSearch performs IN(Search) for every GET in one SearchBatch call,
// collecting candidate spans into the batch's shared arena.
func (r *LiveRunner) runSearch(b *liveBatch) {
	r.gather(b)
	ng := len(b.getKeys)
	b.searched = true
	b.glo = sizeI32(b.glo, ng)
	b.ghi = sizeI32(b.ghi, ng)
	if r.eachGathered(b, b.getOff, ng, func(j0, j1 int) {
		b.cands = r.store.SearchBatch(b.getKeys[j0:j1], b.cands, b.glo[j0:j1], b.ghi[j0:j1])
	}) {
		// A poisoned frame's spans may be half written by its failed call;
		// empty them so the read stage's batch-wide call stays in bounds.
		for fi, f := range b.frames {
			if f.Err {
				j0, j1 := gatheredRange(b.getOff, ng, fi)
				clear(b.glo[j0:j1])
				clear(b.ghi[j0:j1])
			}
		}
	}
}

// runWrites performs the batch's index writes in one pass over its queries:
// every SET's composite MM + IN.Insert + IN.Delete when sets is set, every
// DELETE's IN.Delete when dels is set (each flag says whether the config
// maps that task onto the running stage).
func (r *LiveRunner) runWrites(b *liveBatch, sets, dels bool) {
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
}

// runReads performs the fused KC+RD for every GET in one batched store call
// — ReadCandidatesBatch over the search stage's candidate spans, or the fully
// fused GetBatch when the search was skipped — and scatters values,
// responses and accounting back per query. Growing the value arena keeps
// earlier backing arrays alive, so responses already built remain valid for
// the batch's lifetime.
func (r *LiveRunner) runReads(b *liveBatch) {
	r.gather(b)
	b.vlo = sizeI32(b.vlo, len(b.getKeys))
	b.vhi = sizeI32(b.vhi, len(b.getKeys))
	r.eachGathered(b, b.getOff, len(b.getKeys), func(j0, j1 int) { r.readGets(b, j0, j1) })
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

// runScans performs SC for every SCAN in the batch in one ScanBatch call
// on one Scanner (one MVCC snapshot of the ordered index), so a batch
// observes a single key-set version. Result blocks are built directly in the
// value arena (same lifetime contract as the KC+RD values). A SCAN whose
// argument does not parse answers StatusError, and so does every SCAN when
// the store has no ordered index (NewScanner returns nil), keeping the
// never-cleared response arena sound.
func (r *LiveRunner) runScans(b *liveBatch) {
	r.gather(b)
	for _, q := range b.badScanQ {
		b.resps[q] = proto.Response{Status: proto.StatusError}
	}
	n := len(b.scanQ)
	if n == 0 {
		return
	}
	sc := r.store.NewScanner()
	if sc == nil {
		for _, q := range b.scanQ {
			b.resps[q] = proto.Response{Status: proto.StatusError}
		}
		return
	}
	b.scanHi = sizeI32(b.scanHi, n)
	r.eachGathered(b, b.scanOff, n, func(j0, j1 int) { r.scanBlocks(b, sc, j0, j1) })
}

// scanBlocks runs gathered SCANs [j0, j1) in one ScanBatch call, building
// their result blocks one after another in the value arena, then books them.
// The arena is extended only once the call returns, so a call that panics
// leaves no partial block behind.
func (r *LiveRunner) scanBlocks(b *liveBatch, sc LiveScanner, j0, j1 int) {
	blocks := resultBlocks{dst: b.vals, hi: b.scanHi[j0:j1], open: -1}
	blocks.advance(0)
	sc.ScanBatch(b.scanStart[j0:j1], b.scanEnd[j0:j1], b.scanLimit[j0:j1], blocks.add)
	blocks.advance(j1 - j0 - 1)
	blocks.finish()
	lo := len(b.vals)
	b.vals = blocks.dst
	for j := j0; j < j1; j++ {
		hi := int(b.scanHi[j])
		block := b.vals[lo:hi:hi]
		b.resps[b.scanQ[j]] = proto.Response{Status: proto.StatusOK, Value: block}
		b.scanBytes += len(block)
		lo = hi
	}
	b.scanEntries += blocks.total
}

// resultBlocks builds one ScanBatch call's result blocks in dst: scan i's
// block ends at hi[i]. ScanBatch runs the scans in order, so the block open
// is always the last one.
type resultBlocks struct {
	dst                        []byte
	hi                         []int32
	open, mark, entries, total int
}

// add is ScanBatch's callback: it appends scan i's entry to its block and
// stops the scan once the block reaches proto.MaxScanResultBytes.
func (sb *resultBlocks) add(i int, key, value []byte) bool {
	sb.advance(i)
	sb.dst = proto.AppendScanEntry(sb.dst, key, value)
	sb.entries++
	sb.total++
	return len(sb.dst)-sb.mark < proto.MaxScanResultBytes
}

// advance opens the block of scan i, finishing the open one and giving the
// scans between them empty blocks.
func (sb *resultBlocks) advance(i int) {
	for sb.open < i {
		if sb.open >= 0 {
			sb.finish()
		}
		sb.open++
		sb.dst, sb.mark = proto.BeginScanResult(sb.dst)
		sb.entries = 0
	}
}

// finish patches the open block's entry count and records where it ends.
func (sb *resultBlocks) finish() {
	proto.FinishScanResult(sb.dst, sb.mark, sb.entries)
	sb.hi[sb.open] = int32(len(sb.dst))
}

// runRespond is WR: partition the response arena back to the frames.
func (r *LiveRunner) runRespond(b *liveBatch) {
	r.eachFrame(b, func(fi int, f *LiveFrame) {
		lo, hi := b.frameRange(fi)
		f.Resps = b.resps[lo:hi:hi]
	})
}

// complete delivers b's frames (the SD task), measures the batch profile,
// consults the provider, installs the returned (config, size) pair for
// future seals, and recycles the batch.
func (r *LiveRunner) complete(b *liveBatch) {
	if r.opts.LogBatch != nil {
		var records, bytes int
		b.lgNanos = r.timed(func() { records, bytes = r.opts.LogBatch(b.frames) })
		b.lgRecords, b.lgBytes = int64(records), int64(bytes)
	}
	b.sdNanos = r.timed(func() { r.opts.DoneBatch(b.frames) })
	b.b.Wall = time.Since(b.sealedAt)

	r.batches.Inc()
	r.queries.Add(uint64(b.nq))
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
	if n > 0 {
		p.RVUnitNanos = float64(b.parseNanos) / float64(n)
		p.SDUnitNanos = float64(b.sdNanos) / float64(n)
	}
	if lg := b.lgRecords; lg > 0 && n > 0 {
		p.LGRecordsPerQuery = float64(lg) / float64(n)
		p.LGSeqBytes = float64(b.lgBytes) / float64(lg)
		p.LGUnitNanos = float64(b.lgNanos) / float64(lg)
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

// Close stops admission, lets stage 1 drain the ready batches and then the
// pending one through the stages (their frames are still delivered), and
// stops the workers. Submit after Close reports false.
func (r *LiveRunner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.drained
		return
	}
	r.closed = true
	r.work.Broadcast()
	r.mu.Unlock()
	r.stageWG[0].Wait()
	for si := 1; si < 3; si++ {
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
		Batches:   r.batches.Load(),
		Queries:   r.queries.Load(),
		Panics:    r.panics.Load(),
		Reconfigs: r.reconfigs.Load(),
		Config:    cfg,
		Target:    target,
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
