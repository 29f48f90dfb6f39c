package dido

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/wal"
)

// This file is the durability tier's server wiring (DESIGN.md §5.13): startup
// recovery (snapshot + WAL replay, including the at-most-once reply cache),
// the pipeline's LG task, and the periodic snapshotter that truncates the
// log. Logging is redo-after-apply: an operation is executed first, its
// record appended after, and the client acked only once the record is
// durable per the sync policy — so every acked SET/DELETE survives kill -9,
// and a lost ack at worst makes the client retry an idempotent operation.

// DurabilityOptions configures the server's durability tier. The zero Dir
// disables durability entirely.
type DurabilityOptions struct {
	// Dir is the durability directory holding wal.log, wal.old and
	// snapshot.snap. Empty disables the tier.
	Dir string
	// Sync selects when WAL appends reach disk: wal.SyncBatch (default,
	// group commit before every ack), wal.SyncInterval (background flusher
	// every SyncInterval), or wal.SyncOff (the OS decides; Close still
	// syncs).
	Sync wal.SyncPolicy
	// SyncInterval is the wal.SyncInterval flusher period; default
	// wal.DefaultSyncInterval.
	SyncInterval time.Duration
	// SnapshotInterval is how often the snapshotter dumps the store and
	// truncates the WAL. 0 disables periodic snapshots (SnapshotNow still
	// works, and recovery replays the whole log).
	SnapshotInterval time.Duration
	// OpenFile overrides how WAL segments are opened — the hook the disk
	// fault injector (internal/faults.WrapFile) and the fsync-accounting
	// tests use. Nil means the real filesystem.
	OpenFile func(path string) (wal.File, error)
}

// durability bundles the server's durability state: the open WAL, the
// snapshot manager, and the recovery/drop accounting.
type durability struct {
	opts DurabilityOptions
	log  *wal.Log
	snap *snapshot.Manager

	snapStop chan struct{}
	snapDone chan struct{}

	// walDrops counts frames whose records could not be committed: the
	// response is dropped (no ack) so the client retries, preserving the
	// acked-implies-durable invariant at the cost of a retry.
	walDrops stats.Counter

	recoveryDuration  time.Duration
	recoveredEntries  int   // snapshot entries applied at startup
	recoveredRecords  int   // WAL records replayed at startup
	recoveredTornTail int64 // torn bytes truncated off the recovered wal.log
	recoveryDropped   int   // recovered SETs the store rejected (e.g. arena too small)

	recBufs sync.Pool // *[]byte: pooled record-encoding buffers
}

// openDurability recovers the durable state into st and replies, then opens
// the WAL for appending and arms the snapshotter. Recovery order is
// snapshot.snap, then wal.old (present only when a crash interrupted the
// snapshot/truncate protocol), then the wal.log tail; SET/DELETE records are
// absolute and idempotent, so replaying an older segment over a newer
// snapshot converges on the same state.
func openDurability(st *Store, replies *replyCache, opts DurabilityOptions) (*durability, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	walPath, walOld, snapPath := snapshot.Paths(opts.Dir)
	d := &durability{opts: opts}
	d.recBufs.New = func() any { b := make([]byte, 0, 4096); return &b }

	start := time.Now()
	// A crash mid-snapshot can leave a side file; it was never renamed into
	// place, so it holds nothing recovery needs.
	os.Remove(filepath.Join(opts.Dir, snapshot.SnapTmp)) //nolint:errcheck

	// A Set can fail when the configured arena is smaller than the one the
	// durable state was written under; that silently turns a previously
	// acked, durable SET into a miss, so every rejection is counted and
	// surfaced through DurabilityStats and the startup log line.
	applyKV := func(key, value []byte) {
		if err := st.Set(key, value); err != nil {
			d.recoveryDropped++
		}
	}
	applyReply := func(addr string, id uint64, frames [][]byte) {
		if replies == nil {
			return
		}
		copied := make([][]byte, len(frames))
		for i, f := range frames {
			copied[i] = append([]byte(nil), f...)
		}
		replies.restore(addr, id, copied)
	}
	entries, err := snapshot.Load(snapPath, applyKV, applyReply)
	if err != nil {
		return nil, fmt.Errorf("durability: recover snapshot: %w", err)
	}
	d.recoveredEntries = entries

	h := wal.Handler{
		Set:    applyKV,
		Delete: func(key []byte) { st.Delete(key) },
		Reply: func(addr []byte, id uint64, frames [][]byte) {
			applyReply(string(addr), id, frames)
		},
	}
	// wal.old first: it predates the current segment (its snapshot never
	// completed), so wal.log must replay after it.
	if _, n, err := wal.ReplayFile(walOld, h); err != nil {
		return nil, fmt.Errorf("durability: recover %s: %w", walOld, err)
	} else {
		d.recoveredRecords += n
	}
	valid, n, err := wal.ReplayFile(walPath, h)
	if err != nil {
		return nil, fmt.Errorf("durability: recover %s: %w", walPath, err)
	}
	d.recoveredRecords += n
	// Truncate the torn tail (a record cut mid-write by the crash) so new
	// appends never land after garbage.
	if fi, serr := os.Stat(walPath); serr == nil && fi.Size() > valid {
		d.recoveredTornTail = fi.Size() - valid
		if terr := os.Truncate(walPath, valid); terr != nil {
			return nil, fmt.Errorf("durability: truncate torn tail: %w", terr)
		}
	}
	d.recoveryDuration = time.Since(start)

	d.log, err = wal.Open(walPath, wal.Options{
		Policy:   opts.Sync,
		Interval: opts.SyncInterval,
		OpenFile: opts.OpenFile,
	})
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}

	d.snap = &snapshot.Manager{
		Dir: opts.Dir,
		Log: d.log,
		KV:  st.Range,
	}
	if replies != nil {
		d.snap.Replies = replies.snapshotIter
	}
	if opts.SnapshotInterval > 0 {
		d.snapStop = make(chan struct{})
		d.snapDone = make(chan struct{})
		go func() {
			defer close(d.snapDone)
			d.snap.Run(opts.SnapshotInterval, d.snapStop)
		}()
	}
	return d, nil
}

// close stops the snapshotter and closes the WAL; wal.Close fsyncs the tail
// under every sync policy, so a graceful shutdown never loses an acked write.
func (d *durability) close() error {
	if d.snapStop != nil {
		close(d.snapStop)
		<-d.snapDone
	}
	err := d.log.Close()
	if errors.Is(err, wal.ErrClosed) {
		return nil
	}
	return err
}

func (d *durability) getBuf() []byte {
	bp := d.recBufs.Get().(*[]byte)
	return (*bp)[:0]
}

func (d *durability) putBuf(b []byte) {
	if cap(b) > 1<<20 {
		return // oversized one-off: let it go rather than pinning the pool
	}
	d.recBufs.Put(&b)
}

// appendFrameRecords appends one executed frame's WAL records to dst: a SET
// or DELETE record per acknowledged write (in execution order), plus — when
// the frame is tracked for at-most-once and carried at least one write — a
// REPLY record binding the encoded response frames to (addr, reqID), so a
// retry after a crash replays the reply instead of re-executing. Returns the
// extended buffer and the number of records appended. resps[i] answers
// queries[i].
func appendFrameRecords(dst []byte, queries []proto.Query, resps []proto.Response, akey string, reqID uint64, tracked bool, respFrames [][]byte) ([]byte, int) {
	n := 0
	writes := 0
	for i, q := range queries {
		if i >= len(resps) || resps[i].Status != proto.StatusOK {
			continue
		}
		switch q.Op {
		case proto.OpSet:
			dst = wal.AppendSet(dst, q.Key, q.Value)
			writes++
			n++
		case proto.OpDelete:
			dst = wal.AppendDelete(dst, q.Key)
			writes++
			n++
		}
	}
	if tracked && writes > 0 {
		dst = wal.AppendReply(dst, akey, reqID, respFrames)
		n++
	}
	return dst, n
}

// pipelineLogBatch is the pipeline's LG task: it encodes the whole batch's
// records and response frames and commits them in one group-commit call. On
// commit failure every write-bearing frame in the batch is marked so
// pipelineBatchDone drops its ack; GET-only frames carry no durability
// obligation and still answer. Runs on the batch's completing worker between
// WR and SD, so its measured cost feeds the LG term of the adaptation
// profile.
func (s *Server) pipelineLogBatch(lfs []*pipeline.LiveFrame) (records, bytes int) {
	d := s.dur
	buf := d.getBuf()
	for _, lf := range lfs {
		if lf.Err {
			continue
		}
		sl := lf.Ctx.(*liveSlot)
		f := sl.f
		// Encode here (not in batchDone) so the REPLY record holds exactly
		// the units the client will receive and the cache will retain.
		f.Units = f.R.Encode(f, lf.Resps)
		var n int
		buf, n = appendFrameRecords(buf, f.Queries, lf.Resps, f.AKey, f.ReqID, f.Tracked, f.Units)
		if n > 0 {
			sl.walRecords = true
			records += n
		}
	}
	bytes = len(buf)
	if records > 0 {
		if err := d.log.Commit(buf, records); err != nil {
			for _, lf := range lfs {
				if lf.Err {
					continue
				}
				if sl := lf.Ctx.(*liveSlot); sl.walRecords {
					sl.walFailed = true
					d.walDrops.Inc()
				}
			}
		}
	}
	d.putBuf(buf)
	return records, bytes
}

// SnapshotNow runs one snapshot/truncate cycle immediately. It returns an
// error when durability is off.
func (s *Server) SnapshotNow() error {
	if s.dur == nil {
		return errors.New("dido: durability not enabled")
	}
	return s.dur.snap.SnapshotOnce()
}

// DurabilityStats is a snapshot of the durability tier's counters.
type DurabilityStats struct {
	// WAL is the write-ahead log's counters.
	WAL wal.Stats
	// Snapshots is the snapshot manager's counters.
	Snapshots snapshot.ManagerStats
	// DroppedAcks counts frames whose ack was dropped because their records
	// could not be committed; the client retries them.
	DroppedAcks uint64
	// RecoveredSnapshotEntries and RecoveredWALRecords describe what startup
	// recovery replayed; RecoveredTornBytes is the torn tail truncated away.
	RecoveredSnapshotEntries int
	RecoveredWALRecords      int
	RecoveredTornBytes       int64
	// RecoveryDroppedApplies counts recovered SETs the store rejected
	// (e.g. the configured arena cannot hold the recovered state). Non-zero
	// means previously durable keys are missing from the live store.
	RecoveryDroppedApplies int
	// RecoveryDuration is how long startup recovery took.
	RecoveryDuration time.Duration
}

// DurabilityStats returns the durability tier's counters; ok is false when
// the server runs without durability.
func (s *Server) DurabilityStats() (DurabilityStats, bool) {
	if s.dur == nil {
		return DurabilityStats{}, false
	}
	return DurabilityStats{
		WAL:                      s.dur.log.Stats(),
		Snapshots:                s.dur.snap.Stats(),
		DroppedAcks:              s.dur.walDrops.Load(),
		RecoveredSnapshotEntries: s.dur.recoveredEntries,
		RecoveredWALRecords:      s.dur.recoveredRecords,
		RecoveredTornBytes:       s.dur.recoveredTornTail,
		RecoveryDroppedApplies:   s.dur.recoveryDropped,
		RecoveryDuration:         s.dur.recoveryDuration,
	}, true
}

// restore inserts a recovered reply without an in-flight marker; recovery
// refills the at-most-once cache with it before serving starts.
func (rc *replyCache) restore(addr string, id uint64, frames [][]byte) {
	rc.mu.Lock()
	rc.put(replyKey{addr, id}, frames)
	rc.mu.Unlock()
}

// snapshotIter walks the cached replies for the snapshotter. The map is
// copied under the lock and iterated outside it, so a slow snapshot write
// never stalls the serving path's cache operations; the frame slices are
// shared but immutable once cached.
func (rc *replyCache) snapshotIter(fn func(addr string, id uint64, frames [][]byte) bool) {
	type entry struct {
		k      replyKey
		frames [][]byte
	}
	rc.mu.Lock()
	all := make([]entry, 0, len(rc.m))
	for k, frames := range rc.m {
		all = append(all, entry{k, frames})
	}
	rc.mu.Unlock()
	for _, e := range all {
		if !fn(e.k.addr, e.k.id, e.frames) {
			return
		}
	}
}
