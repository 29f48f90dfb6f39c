// Command dido-server runs the real (non-simulated) in-memory key-value
// store as a UDP server speaking the batched binary protocol, and optionally
// (-resp) as a RESP2 server over TCP.
//
// Admitted frames are served through the batched task-granular pipeline
// (DIDO's staged execution); -adapt closes the paper's adaptation loop,
// re-planning the pipeline online from measured per-batch profiles.
//
// The server sheds load with StatusBusy when more than -max-inflight frames
// are in flight (the only point where it refuses a frame), deduplicates
// retried frames by request ID, and survives malformed or poisoned frames.
//
// Usage:
//
//	dido-server -addr 127.0.0.1:11311 -mem 268435456
//	dido-server -adapt -batch-interval 500us
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// waitForBind blocks until addr reports a bound address and returns it. The
// serve functions can return a nil error without ever binding (the server
// closed between Listen and register), so a bare busy-wait could spin
// forever; watching the serve goroutine's exit and a generous deadline
// turns both of those into a clean startup failure instead.
func waitForBind(name string, addr func() net.Addr, served <-chan struct{}) net.Addr {
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if a := addr(); a != nil {
			return a
		}
		select {
		case <-served:
			if a := addr(); a != nil {
				return a
			}
			log.Fatalf("%s: server exited before binding", name)
		case <-deadline.C:
			log.Fatalf("%s: no listener bound within 10s", name)
		case <-tick.C:
		}
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:11311", "UDP listen address (binary batched protocol)")
	respAddr := flag.String("resp", "", "optional TCP listen address for the RESP2 (Redis) protocol")
	mem := flag.Int64("mem", 256<<20, "key-value arena bytes")
	statsEvery := flag.Duration("stats-interval", 10*time.Second, "stats print interval (0 disables)")
	maxInflight := flag.Int("max-inflight", dido.DefaultMaxInFlight, "frames admitted at once; a frame over this budget is shed with StatusBusy (the server's only frame-shed point)")
	replyCache := flag.Int("reply-cache", dido.DefaultReplyCacheSize, "retried-request reply cache entries (negative disables)")
	maxConns := flag.Int("max-conns", 0, "open RESP connection budget (0 = default 1024, negative = unlimited)")

	batchInterval := flag.Duration("batch-interval", 500*time.Microsecond, "scheduling interval the batch size is chosen for (a sizing target, not a timer: stage 1 seals a partial batch as soon as it is free)")
	adapt := flag.Bool("adapt", false, "online pipeline reconfiguration from measured per-batch profiles")
	ordered := flag.Bool("ordered", true, "keep the ordered index beside the cuckoo table (enables SCAN; the index is built by the first SCAN, so a load pays nothing for it; while it is maintained a write costs one in-place B-tree descent; a store that takes 2x its live keys + 64Ki writes with no SCAN drops its index and the next SCAN rebuilds it)")

	adminAddr := flag.String("admin", "", "HTTP observability address, e.g. :9090 (/metrics, /config, /trace, /slowlog, /debug/pprof; empty disables)")
	slowQuery := flag.Duration("slow-query", 0, "record frames slower than this (0 disables the slow-query log)")
	slowSample := flag.Int("slow-query-sample", 1, "record 1 of every N over-threshold frames")
	slowEntries := flag.Int("slow-query-log", obs.DefaultSlowLogSize, "slow-query ring entries")

	walDir := flag.String("wal", "", "durability directory for the write-ahead log + snapshots (empty disables durability)")
	walSync := flag.String("wal-sync", "batch", "WAL sync policy: batch (fsync before every ack), off, or a duration for interval syncing (e.g. 10ms)")
	snapInterval := flag.Duration("snapshot-interval", time.Minute, "snapshot + WAL-truncate period (0 disables periodic snapshots)")

	flag.Parse()

	st := dido.NewStore(dido.StoreConfig{MemoryBytes: *mem, Ordered: *ordered})
	opts := dido.ServerOptions{
		MaxInFlight:    *maxInflight,
		ReplyCacheSize: *replyCache,
		MaxConns:       *maxConns,
	}
	if *walDir != "" {
		dopts := &dido.DurabilityOptions{Dir: *walDir, SnapshotInterval: *snapInterval}
		switch *walSync {
		case "batch":
			dopts.Sync = wal.SyncBatch
		case "off":
			dopts.Sync = wal.SyncOff
		default:
			iv, err := time.ParseDuration(*walSync)
			if err != nil || iv <= 0 {
				log.Fatalf("-wal-sync must be batch, off or a positive duration, got %q", *walSync)
			}
			dopts.Sync = wal.SyncInterval
			dopts.SyncInterval = iv
		}
		opts.Durability = dopts
	}
	var slowLog *obs.SlowLog
	if *slowQuery > 0 {
		slowLog = obs.NewSlowLog(*slowQuery, *slowEntries, *slowSample)
		opts.SlowLog = slowLog
	}
	var trace *obs.TraceRing
	if *adminAddr != "" && *adapt {
		trace = obs.NewTraceRing(0)
	}
	opts.Pipeline = &dido.PipelineOptions{BatchInterval: *batchInterval, Adapt: *adapt, Trace: trace}

	srv, err := dido.NewServerDurable(st, opts)
	if err != nil {
		log.Fatalf("open server: %v", err)
	}
	if ds, ok := srv.DurabilityStats(); ok {
		log.Printf("durability on: dir=%s sync=%s recovered %d snapshot entries + %d WAL records in %v (torn tail: %d bytes)",
			*walDir, *walSync, ds.RecoveredSnapshotEntries, ds.RecoveredWALRecords,
			ds.RecoveryDuration.Round(time.Microsecond), ds.RecoveredTornBytes)
		if ds.RecoveryDroppedApplies > 0 {
			log.Printf("WARNING: recovery dropped %d SET applications (arena too small for the recovered state?); previously durable keys are missing", ds.RecoveryDroppedApplies)
		}
	}
	udpServed := make(chan struct{})
	go func() {
		defer close(udpServed)
		if err := srv.Serve(*addr); err != nil {
			log.Fatalf("serve: %v", err)
		}
	}()
	// Wait for bind so the printed address is real.
	log.Printf("dido-server listening on %s (arena %d MB, max-inflight %d, adapt=%v)",
		waitForBind("udp", srv.Addr, udpServed), *mem>>20, *maxInflight, *adapt)

	if *respAddr != "" {
		respServed := make(chan struct{})
		go func() {
			defer close(respServed)
			if err := srv.ServeRESP(*respAddr); err != nil {
				log.Fatalf("resp serve: %v", err)
			}
		}()
		log.Printf("RESP2 (Redis) protocol on %s (tcp; GET/SET/DEL/MGET/PING)",
			waitForBind("resp", srv.RESPAddr, respServed))
	}

	var admin *obs.Admin
	if *adminAddr != "" {
		admin = obs.NewAdmin(obs.AdminOptions{
			Collect: func(w *obs.MetricsWriter) {
				srv.CollectMetrics(w)
				st.CollectMetrics(w)
			},
			Config:  func() any { return srv.ConfigView() },
			Trace:   trace,
			SlowLog: slowLog,
		})
		if err := admin.Start(*adminAddr); err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		log.Printf("admin endpoint on http://%s (/metrics /config /trace /slowlog /debug/pprof)", admin.Addr())
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				s := st.Stats()
				ss := srv.Stats()
				// The server half of the line renders through the same
				// ServerStats.String the /metrics parity tests pin.
				line := fmt.Sprintf("%s live=%d hits=%d misses=%d evictions=%d load=%.2f ordered-splits=%d ordered-merges=%d ordered-maintained=%d ordered-drops=%d ordered-rebuilds=%d ordered-build=%v",
					ss, s.LiveObjects, s.Hits, s.Misses, s.Evictions, s.IndexLoadFactor, s.OrderedSplits, s.OrderedMerges,
					s.OrderedMaintained, s.OrderedDrops, s.OrderedRebuilds, time.Duration(s.OrderedBuildNanos).Round(time.Millisecond))
				if ds, ok := srv.DurabilityStats(); ok {
					line += fmt.Sprintf(" | wal records=%d bytes=%d syncs=%d errs=%d drops=%d snaps=%d",
						ds.WAL.Records, ds.WAL.Bytes, ds.WAL.Syncs,
						ds.WAL.WriteErrs+ds.WAL.SyncErrs, ds.DroppedAcks, ds.Snapshots.Snapshots)
				}
				ps := srv.PipelineStats()
				line += fmt.Sprintf(" | pipe batches=%d target=%d reconfigs=%d panics=%d",
					ps.Batches, ps.Target, ps.Reconfigs, ps.Panics)
				if replans, ok := srv.PipelineReplans(); ok {
					line += fmt.Sprintf(" replans=%d", replans)
				}
				sq := srv.PipelineStageQuantiles(0.5, 0.99, 0.999)
				for si := range sq {
					line += fmt.Sprintf(" s%d[p50=%.0fus p99=%.0fus p999=%.0fus]",
						si+1, sq[si][0], sq[si][1], sq[si][2])
				}
				log.Print(line)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down (draining in-flight frames)")
	if admin != nil {
		admin.Close()
	}
	srv.Close()
}
