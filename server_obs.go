package dido

import (
	"fmt"
	"time"

	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wal"
)

// This file renders the server's observability surfaces for the admin
// endpoint (internal/obs): the Prometheus exposition, the live-config JSON
// view, and the human-readable stats line. The dump line and /metrics render
// from the same ServerStats snapshot type so the two surfaces can never
// disagree about what a counter means.

// String renders the stats line the server command prints periodically. It
// and writeServerMetrics consume the same snapshot — tests pin that both
// report identical values from one Stats() call.
func (ss ServerStats) String() string {
	return fmt.Sprintf("served=%d frames=%d shed=%d replayed=%d dup-dropped=%d malformed=%d panics=%d conns-shed=%d inflight=%d",
		ss.Served, ss.Frames, ss.Shed, ss.Replayed, ss.DupDropped, ss.Malformed, ss.Panics, ss.ConnsShed, ss.InFlight)
}

// writeServerMetrics emits one ServerStats snapshot in exposition format.
// Split from CollectMetrics so tests can render a pinned snapshot.
func writeServerMetrics(w *obs.MetricsWriter, ss ServerStats) {
	w.Counter("dido_served_queries_total", "Queries executed.", ss.Served)
	w.Counter("dido_frames_total", "Frames executed.", ss.Frames)
	w.Counter("dido_shed_frames_total", "Frames rejected with StatusBusy under overload.", ss.Shed)
	w.Counter("dido_replayed_frames_total", "Retried frames answered from the reply cache.", ss.Replayed)
	w.Counter("dido_dup_dropped_frames_total", "Duplicate frames dropped while the original executed.", ss.DupDropped)
	w.Counter("dido_malformed_frames_total", "Undecodable or corrupted frames dropped.", ss.Malformed)
	w.Counter("dido_panics_total", "Frames whose processing panicked (contained).", ss.Panics)
	w.Counter("dido_shed_conns_total", "Stream connections rejected over the MaxConns budget.", ss.ConnsShed)
	w.Gauge("dido_inflight_frames", "Frames currently being processed.", float64(ss.InFlight))
}

// collectFrontendMetrics emits the per-frontend breakdown (udp / resp / text),
// one labelled series per counter, from each registered StatsSource.
func (s *Server) collectFrontendMetrics(w *obs.MetricsWriter) {
	s.mu.Lock()
	srcs := make([]frontend.StatsSource, len(s.statsSrcs))
	copy(srcs, s.statsSrcs)
	s.mu.Unlock()
	for _, src := range srcs {
		fs := src.FrontendStats()
		labels := fmt.Sprintf("frontend=%q", src.Name())
		w.CounterL("dido_frontend_frames_total", "Frames decoded and handed to the core, per frontend.", labels, fs.Frames)
		w.CounterL("dido_frontend_malformed_total", "Undecodable inputs dropped at the frontend.", labels, fs.Malformed)
		w.CounterL("dido_frontend_bytes_in_total", "Transport bytes received.", labels, fs.BytesIn)
		w.CounterL("dido_frontend_bytes_out_total", "Transport bytes sent.", labels, fs.BytesOut)
		w.CounterL("dido_frontend_conns_accepted_total", "Stream connections accepted (0 for datagram frontends).", labels, fs.ConnsAccepted)
		w.CounterL("dido_frontend_conns_shed_total", "Stream connections shed at accept.", labels, fs.ConnsShed)
		w.GaugeL("dido_frontend_conns_active", "Stream connections currently open.", labels, float64(fs.ConnsActive))
		w.CounterL("dido_frontend_send_errors_total", "Reply writes that failed (frames dropped or connections torn down).", labels, fs.SendErrs)
		if qs, ok := src.(frontend.QueueStatsSource); ok {
			queues := qs.QueueStats()
			w.GaugeL("dido_frontend_queues", "Ingestion queues this frontend shards across.", labels, float64(len(queues)))
			if len(queues) > 1 {
				for qi, q := range queues {
					ql := fmt.Sprintf("frontend=%q,queue=\"%d\"", src.Name(), qi)
					w.CounterL("dido_frontend_queue_frames_total", "Frames decoded on this ingestion queue.", ql, q.Frames)
					w.CounterL("dido_frontend_queue_bytes_in_total", "Transport bytes received on this queue.", ql, q.BytesIn)
					w.CounterL("dido_frontend_queue_bytes_out_total", "Transport bytes sent on this queue.", ql, q.BytesOut)
					w.CounterL("dido_frontend_queue_send_errors_total", "Failed reply writes on this queue.", ql, q.SendErrs)
					w.CounterL("dido_frontend_queue_conns_total", "Connections accepted on this queue (stream frontends).", ql, q.Conns)
				}
			}
		}
	}
}

// CollectMetrics appends the server's serving and pipeline metrics to w; it
// is the server's half of the admin endpoint's Collect callback.
func (s *Server) CollectMetrics(w *obs.MetricsWriter) {
	writeServerMetrics(w, s.Stats())
	s.collectFrontendMetrics(w)
	if s.dur != nil {
		s.collectDurabilityMetrics(w)
	}
	ps := s.pipe.runner.Stats()
	w.Counter("dido_pipeline_batches_total", "Batches completed by the live pipeline.", ps.Batches)
	w.Counter("dido_pipeline_queries_total", "Queries served through the pipeline.", ps.Queries)
	w.Counter("dido_pipeline_reconfigs_total", "Batch boundaries that installed a different config.", ps.Reconfigs)
	w.Counter("dido_pipeline_submit_shed_total", "Frames rejected because every stage-1 slot was full.", ps.SubmitShed)
	w.Counter("dido_pipeline_panics_total", "Frames poisoned inside a pipeline stage.", ps.Panics)
	w.Gauge("dido_pipeline_batch_target", "Currently installed batch-size target in queries.", float64(ps.Target))
	if s.pipe.ctrl != nil {
		w.Counter("dido_pipeline_replans_total", "Times online adaptation installed a re-planned config.", s.pipe.ctrl.Replans())
		w.Gauge("dido_planner_error_ratio", "Mean |predicted - realized| / realized batch Tmax over the last closed adaptation window.", s.pipe.ctrl.PlannerError())
	}
	// Per-stage wall-time distribution as a summary: each stage's quantiles,
	// sum and count come from one consistent histogram snapshot.
	for si := 0; si < 3; si++ {
		w.Summary("dido_pipeline_stage_micros",
			"Per-batch stage wall time in microseconds.",
			fmt.Sprintf("stage=%q", fmt.Sprint(si+1)),
			s.pipe.runner.StageHistogram(pipeline.Stage(si)).Export(),
			0.5, 0.99, 0.999)
	}
}

// collectDurabilityMetrics emits the durability tier's metrics; called only
// when the tier is attached, so a non-durable server's exposition is
// unchanged (its name set is pinned separately by tests).
func (s *Server) collectDurabilityMetrics(w *obs.MetricsWriter) {
	ds, _ := s.DurabilityStats()
	w.Counter("dido_wal_records_total", "WAL records committed.", ds.WAL.Records)
	w.Counter("dido_wal_bytes_total", "Framed WAL bytes committed.", ds.WAL.Bytes)
	w.Counter("dido_wal_syncs_total", "WAL fsyncs issued (group commit shares them).", ds.WAL.Syncs)
	w.Counter("dido_wal_errors_total", "WAL write + fsync failures.", ds.WAL.WriteErrs+ds.WAL.SyncErrs)
	w.Counter("dido_wal_rotations_total", "WAL segment rotations (one per snapshot).", ds.WAL.Rotations)
	w.Counter("dido_wal_dropped_acks_total", "Frames whose ack was dropped because their WAL commit failed.", ds.DroppedAcks)
	w.Summary("dido_wal_fsync_micros", "WAL fsync latency in microseconds.", "",
		s.dur.log.FsyncHistogram().Export(), 0.5, 0.99, 0.999)
	w.Counter("dido_snapshots_total", "Completed snapshot/truncate cycles.", ds.Snapshots.Snapshots)
	w.Counter("dido_snapshot_errors_total", "Failed snapshot attempts (retried next tick).", ds.Snapshots.Errors)
	w.Gauge("dido_snapshot_last_unix", "Completion time of the newest snapshot (0 = none).", float64(ds.Snapshots.LastUnix))
	w.Gauge("dido_snapshot_last_entries", "Entries in the newest snapshot.", float64(ds.Snapshots.LastEntries))
	w.Gauge("dido_recovery_duration_seconds", "Startup recovery time (snapshot load + WAL replay).", ds.RecoveryDuration.Seconds())
	w.Gauge("dido_recovery_wal_records", "WAL records replayed by startup recovery.", float64(ds.RecoveredWALRecords))
	w.Gauge("dido_recovery_dropped_applies", "Recovered SETs the backend rejected at startup (non-zero = durable keys missing).", float64(ds.RecoveryDroppedApplies))
}

// ServerConfigView is the admin /config payload: the serving configuration as
// it stands now, including the pipeline config adaptation may have installed
// since startup.
type ServerConfigView struct {
	MaxInFlight    int `json:"max_inflight"`
	ReplyCacheSize int `json:"reply_cache_size"`
	// NetQueues is the effective ingestion queue count the frontends shard
	// across; NetQueuesRequested appears only when the platform or the cost
	// model gated the count below what was configured.
	NetQueues          int `json:"net_queues"`
	NetQueuesRequested int `json:"net_queues_requested,omitempty"`
	// SlowQueryThresholdMicros is present when a slow-query log is attached.
	SlowQueryThresholdMicros float64 `json:"slow_query_threshold_micros,omitempty"`
	// Pipeline is the pipeline's currently installed plan.
	Pipeline PipelineConfigView `json:"pipeline"`
	// Durability is present when the durability tier is attached.
	Durability *DurabilityConfigView `json:"durability,omitempty"`
}

// DurabilityConfigView describes the durability tier's configuration.
type DurabilityConfigView struct {
	Dir string `json:"dir"`
	// Sync is the WAL sync policy: "batch", "interval" or "off".
	Sync string `json:"sync"`
	// SyncIntervalMicros is present under the interval policy.
	SyncIntervalMicros float64 `json:"sync_interval_micros,omitempty"`
	// SnapshotIntervalSeconds is 0 when periodic snapshots are off.
	SnapshotIntervalSeconds float64 `json:"snapshot_interval_seconds"`
	// Snapshots reports whether the backend supports snapshotting (Range).
	Snapshots bool `json:"snapshots"`
}

// PipelineConfigView describes the live pipeline's current plan.
type PipelineConfigView struct {
	// Config is the paper's pipeline notation (e.g. "CPU[IN.S]+GPU[KC,RD]+CPU[WR]").
	Config string `json:"config"`
	// GPUDepth / CPUCoresPre / InsertOn / DeleteOn break the config out.
	GPUDepth    int    `json:"gpu_depth"`
	CPUCoresPre int    `json:"cpu_cores_pre"`
	InsertOn    string `json:"insert_on"`
	DeleteOn    string `json:"delete_on"`
	// BatchTarget is the installed batch-size target in queries.
	BatchTarget int `json:"batch_target"`
	// Adapt reports whether online reconfiguration is driving the plan;
	// Replans how many times it installed a new one.
	Adapt   bool   `json:"adapt"`
	Replans uint64 `json:"replans"`
}

// ConfigView returns the live serving configuration for the admin /config
// endpoint. Each call re-reads the pipeline's installed config, so the view
// follows online reconfiguration.
func (s *Server) ConfigView() ServerConfigView {
	v := ServerConfigView{
		MaxInFlight:    s.opts.MaxInFlight,
		ReplyCacheSize: s.opts.ReplyCacheSize,
		NetQueues:      s.netQueues,
	}
	if s.opts.NetQueues > s.netQueues {
		v.NetQueuesRequested = s.opts.NetQueues
	}
	if s.opts.SlowLog != nil {
		v.SlowQueryThresholdMicros = float64(s.opts.SlowLog.Threshold().Microseconds())
	}
	if s.dur != nil {
		dv := &DurabilityConfigView{
			Dir:                     s.dur.opts.Dir,
			Sync:                    s.dur.opts.Sync.String(),
			SnapshotIntervalSeconds: s.dur.opts.SnapshotInterval.Seconds(),
			Snapshots:               s.dur.snap != nil,
		}
		if s.dur.opts.Sync == wal.SyncInterval {
			iv := s.dur.opts.SyncInterval
			if iv <= 0 {
				iv = 10 * time.Millisecond
			}
			dv.SyncIntervalMicros = float64(iv.Microseconds())
		}
		v.Durability = dv
	}
	ps := s.pipe.runner.Stats()
	v.Pipeline = PipelineConfigView{
		Config:      ps.Config.String(),
		GPUDepth:    ps.Config.GPUDepth,
		CPUCoresPre: ps.Config.CPUCoresPre,
		InsertOn:    ps.Config.InsertOn.String(),
		DeleteOn:    ps.Config.DeleteOn.String(),
		BatchTarget: ps.Target,
		Adapt:       s.pipe.ctrl != nil,
	}
	if s.pipe.ctrl != nil {
		v.Pipeline.Replans = s.pipe.ctrl.Replans()
	}
	return v
}
