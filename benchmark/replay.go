package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cuckoo"
	"repro/internal/ordered"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/udpbatch"
	"repro/internal/wal"
)

// Tracing inside the server is a later change, so the per-layer budget comes
// from here: a capped prefix of the same seeded stream is replayed in this
// process through each layer's public functions, in batches of the size the
// live server was seen to form, with a span around every call.

// replayQueries caps the replayed prefix of the stream.
const replayQueries = 200_000

// Span names. The layer is the part before the dot.
const (
	spanBatch   = "replay.batch" // root of one batch; its self time is the replay's own glue
	spanRecv    = "udpbatch.recv"
	spanSend    = "udpbatch.send"
	spanParse   = "proto.parse"
	spanEncode  = "proto.encode"
	spanSearch  = "store.search"
	spanRead    = "store.read"
	spanSet     = "store.set"
	spanScan    = "store.scan"
	spanWAL     = "wal.commit"
	spanOrdered = "ordered.update"
	spanPlan    = "costmodel.plan"
	spanFrame   = "pipeline.frame" // Submit → DoneBatch of one frame; frames overlap
)

// replay holds a store loaded like the server's and the stream prefix to push
// through it.
type replay struct {
	w  *workloadSpec
	st *store.Store

	// The prefix, flattened: query i belongs to request frame i/frameQueries.
	queries []proto.Query
	ranks   []uint64
	wires   [][]byte // DKV2 encoding of each frame (UDP workloads)
	batchQ  int      // queries per replayed batch

	// A loopback socket pair stands in for the server's socket and one
	// client, so RV and SD pay real kernel crossings.
	srv, cli *net.UDPConn
	rcv      *udpbatch.Receiver
	snd      *udpbatch.Sender

	log    *wal.Log
	walDir string

	verdict tally // every replayed reply is verified like a live one

	// Scratch reused across batches.
	bufs             [][]byte
	addrs            []net.Addr
	sizes            []int
	parsed           [][]proto.Query
	bq               []proto.Query
	keys             [][]byte
	getAt            []int
	cands            []cuckoo.Location
	lo, hi, vlo, vhi []int32
	vals, scanArena  []byte
	resps            []proto.Response
	out              [][]byte
	msgs             []udpbatch.Message
	walBuf, dgram    []byte
	clientResps      []proto.Response
	userBytes        uint64
	walRecords       uint64
}

// newReplay loads a store with w's population and generates the stream
// prefix of seed. qPerBatch is the batch size the live server was seen to
// form; UDP batches are whole frames.
func newReplay(w *workloadSpec, seed int64, qPerBatch float64, outDir string) (*replay, error) {
	r := &replay{w: w, verdict: tally{measureTo: 1 << 62}}
	// The server's defaults: one shard, no hot-key table, ordered index on.
	r.st = store.New(store.Config{MemoryBytes: w.memBytes, Ordered: true})
	key, val := make([]byte, w.keySize), make([]byte, w.valSize)
	for rank := uint64(0); rank < w.population; rank++ {
		putKey(key, rank)
		putValue(val, rank)
		if _, _, err := r.st.Set(key, val); err != nil {
			return nil, fmt.Errorf("replay preload: %w", err)
		}
	}

	stream := newOpStream(w, seed)
	for n := 0; n < replayQueries; n += w.frameQueries {
		f := newFrameBuf(w, w.frameQueries) // one per frame: the queries keep aliasing it
		stream.fill(f)
		if !w.resp {
			r.wires = append(r.wires, proto.EncodeFrameV2(nil, uint64(len(r.wires)+1), f.queries))
		}
		r.queries = append(r.queries, f.queries...)
		r.ranks = append(r.ranks, f.ranks...)
	}

	r.batchQ = int(qPerBatch + 0.5)
	if r.batchQ < 1 {
		r.batchQ = 1
	}
	if !w.resp {
		// Whole frames per batch, at least one.
		nf := (r.batchQ + w.frameQueries/2) / w.frameQueries
		if nf < 1 {
			nf = 1
		}
		r.batchQ = nf * w.frameQueries
		var err error
		if r.srv, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			return nil, err
		}
		if r.cli, err = net.DialUDP("udp", nil, r.srv.LocalAddr().(*net.UDPAddr)); err != nil {
			r.close()
			return nil, err
		}
		_ = r.cli.SetReadBuffer(4 << 20) // best effort, as in the live driver
		r.rcv, r.snd = udpbatch.NewReceiver(r.srv), udpbatch.NewSender(r.srv)
		r.dgram = make([]byte, proto.MaxFrameBytes)
		for i := 0; i < nf; i++ {
			r.bufs = append(r.bufs, make([]byte, proto.MaxFrameBytes))
		}
		r.addrs, r.sizes = make([]net.Addr, nf), make([]int, nf)
		r.parsed, r.out = make([][]proto.Query, nf), make([][]byte, nf)
	}

	// The WAL is a reference cost only (no workload here runs durable): a
	// bounded file inside the checkout, never fsynced, removed at exit.
	r.walDir = replayWALDir(outDir)
	if err := os.MkdirAll(r.walDir, 0o755); err != nil {
		r.close()
		return nil, err
	}
	var err error
	if r.log, err = wal.Open(filepath.Join(r.walDir, "replay.wal"), wal.Options{Policy: wal.SyncOff}); err != nil {
		r.close()
		return nil, fmt.Errorf("replay wal: %w", err)
	}
	return r, nil
}

// replayWALDir is this process's scratch directory for the replay's WAL.
func replayWALDir(outDir string) string {
	return filepath.Join(outDir, fmt.Sprintf("wal-%d", os.Getpid()))
}

func (r *replay) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.cli != nil {
		r.cli.Close()
	}
	if r.log != nil {
		_ = r.log.Close() // the file is about to be deleted
	}
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

func sizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// layerPass pushes every batch through the layers once and returns the wall
// time. With a nil tracer it is the untraced baseline of the same work.
func (r *replay) layerPass(t *tracer) (time.Duration, error) {
	start := time.Now()
	for lo := 0; lo < len(r.queries); lo += r.batchQ {
		hi := lo + r.batchQ
		if hi > len(r.queries) {
			hi = len(r.queries)
		}
		if err := r.batch(t, lo, hi); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// batch serves queries[lo:hi] the way the pipelined server does: receive and
// parse the frames, search, write, read, scan, encode and send, then log.
func (r *replay) batch(t *tracer, lo, hi int) error {
	w := r.w
	root := t.begin(spanBatch, -1)
	defer t.end(root)
	fq := w.frameQueries
	f0, nf := lo/fq, (hi-lo+fq-1)/fq
	bq := r.queries[lo:hi]

	if !w.resp {
		for j := 0; j < nf; j++ {
			if _, err := r.cli.Write(r.wires[f0+j]); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
		s := t.begin(spanRecv, -1)
		for got := 0; got < nf; {
			_ = r.srv.SetReadDeadline(time.Now().Add(time.Second)) // cannot fail on an open socket
			n, err := r.rcv.Recv(r.bufs[got:nf], r.addrs[got:nf], r.sizes[got:nf])
			if err != nil {
				return fmt.Errorf("replay recv: %w", err)
			}
			got += n
		}
		t.end(s)
		bq = r.bq[:0]
		for j := 0; j < nf; j++ {
			s := t.begin(spanParse, f0+j)
			qs, _, err := proto.ParseFrameID(r.bufs[j][:r.sizes[j]], r.parsed[j][:0])
			t.end(s)
			if err != nil {
				return fmt.Errorf("replay parse: %w", err)
			}
			r.parsed[j] = qs
			bq = append(bq, qs...)
		}
		r.bq = bq
	}

	r.keys, r.getAt = r.keys[:0], r.getAt[:0]
	for i, q := range bq {
		if q.Op == proto.OpGet {
			r.keys = append(r.keys, q.Key)
			r.getAt = append(r.getAt, i)
		}
	}
	if cap(r.resps) < len(bq) {
		r.resps = make([]proto.Response, len(bq))
	}
	resps := r.resps[:len(bq)]
	ng := len(r.keys)
	wide := ng >= pipeline.DefaultWideMinGets
	r.lo, r.hi = sizeInt32(r.lo, ng), sizeInt32(r.hi, ng)
	r.vlo, r.vhi = sizeInt32(r.vlo, ng), sizeInt32(r.vhi, ng)

	if ng > 0 {
		s := t.begin(spanSearch, -1)
		r.cands = r.cands[:0]
		if wide {
			r.cands = r.st.SearchBatch(r.keys, r.cands, r.lo, r.hi)
		} else {
			for j, k := range r.keys {
				r.lo[j] = int32(len(r.cands))
				r.cands = r.st.SearchServe(k, r.cands)
				r.hi[j] = int32(len(r.cands))
			}
		}
		t.end(s)
	}

	sets := 0
	for i, q := range bq {
		if q.Op != proto.OpSet {
			continue
		}
		s := t.begin(spanSet, (lo+i)/fq)
		_, _, err := r.st.Set(q.Key, q.Value)
		t.end(s)
		resps[i] = proto.Response{Status: proto.StatusOK}
		if err != nil {
			resps[i].Status = proto.StatusError
		}
		sets++
	}

	if ng > 0 {
		s := t.begin(spanRead, -1)
		r.vals = r.vals[:0]
		if wide {
			r.vals, _ = r.st.ReadCandidatesBatch(r.keys, r.cands, r.lo, r.hi, r.vals, r.vlo, r.vhi)
		} else {
			for j, k := range r.keys {
				var ok bool
				r.vlo[j] = int32(len(r.vals))
				if r.vals, ok = r.st.ReadCandidates(k, r.cands[r.lo[j]:r.hi[j]], r.vals); !ok {
					r.vlo[j] = -1
				}
				r.vhi[j] = int32(len(r.vals))
			}
		}
		t.end(s)
		for j, i := range r.getAt {
			if r.vlo[j] < 0 {
				resps[i] = proto.Response{Status: proto.StatusNotFound}
			} else {
				resps[i] = proto.Response{Status: proto.StatusOK, Value: r.vals[r.vlo[j]:r.vhi[j]]}
			}
		}
	}

	var sc *store.Scanner
	r.scanArena = r.scanArena[:0]
	for i, q := range bq {
		if q.Op != proto.OpScan {
			continue
		}
		if sc == nil {
			sc = r.st.NewScanner() // one snapshot per batch, as the SC task takes
		}
		limit, end, err := proto.ParseScanArg(q.Value)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		s := t.begin(spanScan, (lo+i)/fq)
		block, mark := proto.BeginScanResult(r.scanArena)
		n := sc.Scan(q.Key, end, limit, func(k, v []byte) bool {
			block = proto.AppendScanEntry(block, k, v)
			return true
		})
		proto.FinishScanResult(block, mark, n)
		t.end(s)
		resps[i] = proto.Response{Status: proto.StatusOK, Value: block[mark:]}
		r.scanArena = block
	}

	if w.resp {
		for i := range bq {
			r.verdict.verify(w, bq[i], r.ranks[lo+i], resps[i], true)
		}
	} else {
		r.msgs = r.msgs[:0]
		for j := 0; j < nf; j++ {
			a, b := j*fq, (j+1)*fq
			if b > len(resps) {
				b = len(resps)
			}
			s := t.begin(spanEncode, f0+j)
			r.out[j] = proto.EncodeResponseFrameV2(r.out[j][:0], uint64(f0+j+1), 0, resps[a:b])
			t.end(s)
			r.msgs = append(r.msgs, udpbatch.Message{Buf: r.out[j], Addr: r.addrs[j]})
		}
		s := t.begin(spanSend, -1)
		r.snd.Send(r.msgs)
		t.end(s)
		// The client's side of the exchange: read the replies and check them.
		for j := 0; j < nf; j++ {
			_ = r.cli.SetReadDeadline(time.Now().Add(time.Second)) // cannot fail on an open socket
			n, err := r.cli.Read(r.dgram)
			if err != nil {
				return fmt.Errorf("replay reply: %w", err)
			}
			got, id, off, err := proto.ParseResponseFrameID(r.dgram[:n], r.clientResps[:0])
			if err != nil || off != 0 {
				return fmt.Errorf("replay reply frame %d: offset %d: %v", id, off, err)
			}
			r.clientResps = got
			base := (int(id) - 1) * fq
			for i, resp := range got {
				r.verdict.verify(w, r.queries[base+i], r.ranks[base+i], resp, true)
			}
		}
	}

	if sets > 0 {
		s := t.begin(spanWAL, -1)
		r.walBuf = r.walBuf[:0]
		for _, q := range bq {
			if q.Op == proto.OpSet {
				r.walBuf = wal.AppendSet(r.walBuf, q.Key, q.Value)
				r.userBytes += uint64(len(q.Key) + len(q.Value))
			}
		}
		err := r.log.Commit(r.walBuf, sets)
		t.end(s)
		if err != nil {
			return fmt.Errorf("replay wal: %w", err)
		}
		r.walRecords += uint64(sets)
	}
	return nil
}

// orderedPass times ordered.Tree.Update alone: a tree holding the whole
// population takes the upsert of every SET in the prefix. Inside the store
// the same call is part of store.Set, so this is a component of store.set's
// time, not an addition to it.
func (r *replay) orderedPass(t *tracer) int {
	w := r.w
	tree := ordered.New()
	key := make([]byte, w.keySize)
	for rank := uint64(0); rank < w.population; rank++ {
		putKey(key, rank)
		tree.Set(key, rank)
	}
	runtime.GC() // building the tree leaves the collector mid-cycle; see runTraced
	n := 0
	for i, q := range r.queries {
		if q.Op != proto.OpSet {
			continue
		}
		rank := r.ranks[i]
		s := t.begin(spanOrdered, i/w.frameQueries)
		tree.Update(q.Key, func() (uint64, bool) { return rank, true })
		t.end(s)
		n++
	}
	return n
}

// liveStore adapts the store to the live pipeline the way the server's own
// (unexported) adaptor does.
type liveStore struct{ s *store.Store }

func (l liveStore) Search(key []byte, dst []cuckoo.Location) []cuckoo.Location {
	return l.s.SearchServe(key, dst)
}
func (l liveStore) ReadCandidates(key []byte, cands []cuckoo.Location, dst []byte) ([]byte, bool) {
	return l.s.ReadCandidates(key, cands, dst)
}
func (l liveStore) Set(key, value []byte) error {
	_, _, err := l.s.Set(key, value)
	return err
}
func (l liveStore) Delete(key []byte) bool { return l.s.Delete(key) }
func (l liveStore) NewScanner() pipeline.LiveScanner {
	if sc := l.s.NewScanner(); sc != nil {
		return sc
	}
	return nil
}
func (l liveStore) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	return l.s.SearchBatch(keys, dst, lo, hi)
}
func (l liveStore) ReadCandidatesBatch(keys [][]byte, cands []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	return l.s.ReadCandidatesBatch(keys, cands, lo, hi, vals, vlo, vhi)
}
func (l liveStore) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	return l.s.GetBatch(keys, vals, vlo, vhi)
}

// pipelineWindow is the frames kept in flight through the live runner, the
// same as the live driver keeps at the server.
const pipelineWindow = 4

// pipelineFrameQueries caps a frame handed to the runner: the RESP front end
// seals a command run at 256 commands.
const pipelineFrameQueries = 256

// pipelinePass sends the prefix through pipeline.NewLiveRunner (Submit →
// DoneBatch) and returns the wall time and how many queries came back with
// an error status. What the runner adds over the store calls it makes is the
// pipeline's own overhead: sealing, hand-offs between stage goroutines,
// response arenas.
func (r *replay) pipelinePass(t *tracer) (time.Duration, int, error) {
	type slot struct {
		lf         pipeline.LiveFrame
		idx        int
		start, end time.Time
		bad        int
	}
	done := make(chan *slot, pipelineWindow) // one entry per frame in flight
	runner := pipeline.NewLiveRunner(liveStore{r.st}, pipeline.LiveOptions{
		DoneBatch: func(fs []*pipeline.LiveFrame) {
			now := time.Now()
			for _, f := range fs {
				sl := f.Ctx.(*slot)
				sl.end = now
				if f.Err {
					sl.bad = len(f.Queries)
				}
				for _, resp := range f.Resps {
					if resp.Status != proto.StatusOK && resp.Status != proto.StatusNotFound {
						sl.bad++
					}
				}
				done <- sl
			}
		},
	})
	defer runner.Close()

	per := r.w.frameQueries
	if per > pipelineFrameQueries {
		per = pipelineFrameQueries
	}
	free := make([]*slot, pipelineWindow)
	for i := range free {
		free[i] = &slot{}
	}
	bad, inFlight, idx := 0, 0, 0
	reap := func() {
		sl := <-done
		t.record(spanFrame, sl.idx, sl.start, sl.end)
		bad += sl.bad
		free = append(free, sl)
		inFlight--
	}
	start := time.Now()
	for lo := 0; lo < len(r.queries); lo += per {
		hi := lo + per
		if hi > len(r.queries) {
			hi = len(r.queries)
		}
		if len(free) == 0 {
			reap()
		}
		sl := free[len(free)-1]
		free = free[:len(free)-1]
		*sl = slot{idx: idx, start: time.Now()}
		sl.lf = pipeline.LiveFrame{Queries: r.queries[lo:hi], Ctx: sl}
		idx++
		if !runner.Submit(&sl.lf) {
			return 0, 0, fmt.Errorf("replay: live runner refused a frame with %d in flight", inFlight)
		}
		inFlight++
	}
	for inFlight > 0 {
		reap()
	}
	return time.Since(start), bad, nil
}
