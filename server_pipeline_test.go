package dido

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/proto"
)

// batchShapes are the two batch shapes the end-to-end suites run the serving
// pipeline under. "per-frame" caps a batch at one query, so every frame is
// sealed into a batch of its own; "pipelined" lets frames share a batch
// within a short batch interval.
var batchShapes = []struct {
	name string
	opts PipelineOptions
}{
	{"per-frame", PipelineOptions{MaxBatch: 1}},
	{"pipelined", PipelineOptions{BatchInterval: 200 * time.Microsecond}},
}

// forEachBatchShape runs fn as one subtest per batch shape, named after it,
// with a fresh copy of that shape's options.
func forEachBatchShape(t *testing.T, fn func(t *testing.T, po *PipelineOptions)) {
	t.Helper()
	for _, bs := range batchShapes {
		po := bs.opts
		t.Run(bs.name, func(t *testing.T) { fn(t, &po) })
	}
}

// pipelinedServer builds a server with explicit pipeline options — a batch
// interval short enough for request/response tests — where the default
// server tests leave ServerOptions.Pipeline nil.
func pipelinedServer(b Backend, opts ServerOptions) *Server {
	if opts.Pipeline == nil {
		opts.Pipeline = &PipelineOptions{BatchInterval: 200 * time.Microsecond}
	}
	return NewServerOpts(b, opts)
}

// TestPipelinedServeBasic drives mixed operations through a server with
// explicit pipeline options against a real store.
func TestPipelinedServeBasic(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv := pipelinedServer(st, ServerOptions{})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := c.Set(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	var qs []Query
	for i := 0; i < 20; i++ {
		qs = append(qs, Query{Op: OpGet, Key: []byte(fmt.Sprintf("k%d", i))})
	}
	qs = append(qs, Query{Op: OpGet, Key: []byte("missing")})
	resps, err := c.Do(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("v%d", i)
		if resps[i].Status != StatusOK || string(resps[i].Value) != want {
			t.Fatalf("GET k%d = %d %q, want OK %q", i, resps[i].Status, resps[i].Value, want)
		}
	}
	if resps[20].Status != StatusNotFound {
		t.Fatalf("GET missing = %+v, want NotFound", resps[20])
	}
	resps, err = c.Do([]Query{{Op: OpDelete, Key: []byte("k0")}})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Status != StatusOK {
		t.Fatalf("DELETE k0 = %+v, want OK", resps[0])
	}
	if _, ok := st.Get([]byte("k0")); ok {
		t.Fatal("DELETE k0 not applied")
	}

	if ps := srv.PipelineStats(); ps.Batches == 0 || ps.Queries == 0 {
		t.Fatalf("pipeline idle: %+v — frames did not go through the batched path", ps)
	}
	if ss := srv.Stats(); ss.Served == 0 || ss.Frames == 0 {
		t.Fatalf("server counters idle: %+v", ss)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestPipelinedDupWhileInFlight pins at-most-once under batching: a retry
// landing while the original SET is parked inside a pipeline stage must be
// dropped, not re-executed.
func TestPipelinedDupWhileInFlight(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	gb := &gatedBackend{
		inner:   st,
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := pipelinedServer(gb, ServerOptions{})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := proto.EncodeFrameV2(nil, 55501, []Query{{Op: OpSet, Key: []byte("dup"), Value: []byte("v")}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gb.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("original SET never reached the backend through the pipeline")
	}

	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().DupDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate was never observed/dropped")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(gb.release)
	buf := make([]byte, proto.MaxFrameBytes)
	readResp := func() []proto.Response {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		rs, id, _, err := proto.ParseResponseFrameID(buf[:n], nil)
		if err != nil || id != 55501 {
			t.Fatalf("response id %d err %v", id, err)
		}
		return rs
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("original response = %+v", rs)
	}
	// Retry after completion: replayed from cache, still one execution.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("replayed response = %+v", rs)
	}
	if n := gb.setCount(); n != 1 {
		t.Fatalf("SET executed %d times through the pipeline, want 1", n)
	}
	ss := srv.Stats()
	if ss.DupDropped != 1 || ss.Replayed != 1 {
		t.Fatalf("dup-dropped=%d replayed=%d, want 1/1", ss.DupDropped, ss.Replayed)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestPipelinedChaosAtMostOnce is the chaos e2e with explicit pipeline
// options: under drop/dup/reorder every acknowledged SET executed exactly
// once and every GET returns the value written.
func TestPipelinedChaosAtMostOnce(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	cb := &countingBackend{inner: st}
	var injector *faults.Conn
	srv := pipelinedServer(cb, ServerOptions{
		WrapConn: func(pc net.PacketConn) net.PacketConn {
			injector = faults.Wrap(pc, faults.Symmetric(42, faults.Profile{
				Drop:    0.10,
				Dup:     0.05,
				Reorder: 0.10,
			}))
			return injector
		},
	})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	c, err := DialOpts(addr, ClientOptions{
		Timeout:    50 * time.Millisecond,
		Retries:    30,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rounds = 40
	const batch = 8
	totalSets := 0
	for r := 0; r < rounds; r++ {
		var sets []Query
		for i := 0; i < batch; i++ {
			sets = append(sets, Query{
				Op:    OpSet,
				Key:   []byte(fmt.Sprintf("r%02d:k%d", r, i)),
				Value: []byte(fmt.Sprintf("val-%d-%d", r, i)),
			})
		}
		resps, err := c.Do(sets)
		if err != nil {
			t.Fatalf("round %d SET: %v", r, err)
		}
		for i, resp := range resps {
			if resp.Status != StatusOK {
				t.Fatalf("round %d SET %d status %d", r, i, resp.Status)
			}
		}
		totalSets += batch
		var gets []Query
		for i := 0; i < batch; i++ {
			gets = append(gets, Query{Op: OpGet, Key: sets[i].Key})
		}
		resps, err = c.Do(gets)
		if err != nil {
			t.Fatalf("round %d GET: %v", r, err)
		}
		for i, resp := range resps {
			want := fmt.Sprintf("val-%d-%d", r, i)
			if resp.Status != StatusOK || string(resp.Value) != want {
				t.Fatalf("round %d GET %d = %d %q, want OK %q", r, i, resp.Status, resp.Value, want)
			}
		}
	}

	// The at-most-once acceptance: despite duplicated and retried frames,
	// each distinct acknowledged SET ran exactly once.
	if n := cb.setCount(); n != totalSets {
		t.Fatalf("backend executed %d SETs for %d distinct acknowledged SETs", n, totalSets)
	}
	fs := injector.Stats()
	if fs.Dropped == 0 || fs.Duplicated == 0 {
		t.Fatalf("injector idle: %+v", fs)
	}
	if cs := c.Stats(); cs.Retries == 0 {
		t.Fatal("no retries under 10%% drop — faults not exercised")
	}
	ss := srv.Stats()
	t.Logf("pipelined chaos: faults=%+v pipe=%+v server={served:%d replayed:%d dup-dropped:%d}",
		fs, srv.PipelineStats(), ss.Served, ss.Replayed, ss.DupDropped)
	srv.Close()
	waitServe(t, errc)
}

// TestPipelinedOverloadSheds checks StatusBusy shedding bounds admission
// with explicit pipeline options (tokens are held from admission to SD).
func TestPipelinedOverloadSheds(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	slow := faults.WrapBackend(st, faults.BackendConfig{Seed: 5, StallRate: 1, Stall: 5 * time.Millisecond})
	srv := pipelinedServer(slow, ServerOptions{MaxInFlight: 2})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	const clients = 8
	const perClient = 10
	var (
		mu        sync.Mutex
		okCount   int
		busyRound uint64
	)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := DialOpts(addr, ClientOptions{
				Timeout: 500 * time.Millisecond,
				Retries: 2,
				Backoff: time.Millisecond,
				Seed:    int64(ci + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				_, err := c.Do([]Query{{Op: OpSet, Key: []byte(fmt.Sprintf("c%d-k%d", ci, i)), Value: []byte("v")}})
				if err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrTimeout) {
					t.Errorf("client %d req %d: %v", ci, i, err)
				}
				mu.Lock()
				if err == nil {
					okCount++
				}
				mu.Unlock()
			}
			mu.Lock()
			busyRound += c.Stats().BusyRounds
			mu.Unlock()
		}(ci)
	}
	wg.Wait()

	if ss := srv.Stats(); ss.Shed == 0 {
		t.Fatalf("pipelined server never shed over budget 2: %+v", ss)
	}
	if busyRound == 0 {
		t.Fatal("no client observed StatusBusy")
	}
	if okCount == 0 {
		t.Fatal("no request was admitted")
	}
	srv.Close()
	waitServe(t, errc)
}

// TestPipelinedPanicAllowsRetry checks that containing a panic to its frame
// inside a batch clears the in-flight marker, so the client's retry is
// re-admitted.
func TestPipelinedPanicAllowsRetry(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	pb := &panicOnceBackend{inner: st}
	srv := pipelinedServer(pb, ServerOptions{})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := proto.EncodeFrameV2(nil, 90211, []Query{{Op: OpSet, Key: []byte("retry"), Value: []byte("v")}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Panics == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panicked frame never observed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, proto.MaxFrameBytes)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("retry after poisoned frame got no reply: %v", err)
	}
	rs, id, _, err := proto.ParseResponseFrameID(buf[:n], nil)
	if err != nil || id != 90211 || len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("retry response = %+v id %d err %v", rs, id, err)
	}
	if v, ok := st.Get([]byte("retry")); !ok || string(v) != "v" {
		t.Fatalf("retried SET not applied: %q/%v", v, ok)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestPipelinedAdaptReplans drives a GET-heavy workload with online
// adaptation on and checks the controller actually re-planned (the first
// measured profile always triggers a plan) while serving stayed correct.
func TestPipelinedAdaptReplans(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv := NewServerOpts(st, ServerOptions{Pipeline: &PipelineOptions{
		BatchInterval: 200 * time.Microsecond,
		Adapt:         true,
	}})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("value-abcdefgh")); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	// ~95% GET traffic in frame-sized batches.
	for round := 0; round < 50; round++ {
		var qs []Query
		for i := 0; i < 19; i++ {
			qs = append(qs, Query{Op: OpGet, Key: []byte(fmt.Sprintf("k%03d", (round*19+i)%keys))})
		}
		qs = append(qs, Query{Op: OpSet, Key: []byte(fmt.Sprintf("k%03d", round%keys)), Value: []byte("value-abcdefgh")})
		resps, err := c.Do(qs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 19; i++ {
			if resps[i].Status != StatusOK {
				t.Fatalf("round %d GET %d = %+v", round, i, resps[i])
			}
		}
	}

	replans, ok := srv.PipelineReplans()
	if !ok {
		t.Fatal("PipelineReplans reports adaptation off")
	}
	if replans == 0 {
		t.Fatal("adaptation never re-planned despite measured profiles")
	}
	ps := srv.PipelineStats()
	if ps.Batches == 0 {
		t.Fatalf("no batches completed: %+v", ps)
	}
	t.Logf("adapt: replans=%d stats=%+v", replans, ps)
	srv.Close()
	waitServe(t, errc)
}

// TestPipelinedWidePath drives small batches of GETs, hits and a miss,
// through the batched read path over the real sharded store and checks the
// end-to-end answers and that the store counted every GET — the
// server-level proof that SearchBatch / ReadCandidatesBatch / GetBatch carry
// real traffic at any batch size.
func TestPipelinedWidePath(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20, Shards: 4})
	srv := NewServerOpts(st, ServerOptions{Pipeline: &PipelineOptions{
		BatchInterval: 200 * time.Microsecond,
	}})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 64
	for i := 0; i < keys; i++ {
		if err := c.Set([]byte(fmt.Sprintf("wk%03d", i)), []byte(fmt.Sprintf("wv%03d", i))); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for round := 0; round < 10; round++ {
		var qs []Query
		for i := 0; i < 20; i++ {
			qs = append(qs, Query{Op: OpGet, Key: []byte(fmt.Sprintf("wk%03d", (round*20+i)%keys))})
		}
		qs = append(qs, Query{Op: OpGet, Key: []byte("wk-missing")})
		resps, err := c.Do(qs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 20; i++ {
			want := fmt.Sprintf("wv%03d", (round*20+i)%keys)
			if resps[i].Status != StatusOK || string(resps[i].Value) != want {
				t.Fatalf("round %d GET %d = %d %q, want OK %q", round, i, resps[i].Status, resps[i].Value, want)
			}
		}
		if resps[20].Status != StatusNotFound {
			t.Fatalf("round %d missing = %+v, want NotFound", round, resps[20])
		}
	}

	// A client retry may re-execute a frame, so these are lower bounds.
	if ss := st.Stats(); ss.Gets < 10*21 || ss.Misses < 10 {
		t.Fatalf("store counted %d GETs / %d misses, want at least 210 / 10", ss.Gets, ss.Misses)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestBatchOrderingContract pins the server's one ordering contract end to
// end on a default server: inside a batch writes run before reads, so a UDP
// frame's GETs all observe the frame's SET, wherever they sit; RESP keeps
// Redis order because every read↔write switch seals a new frame.
func TestBatchOrderingContract(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv := NewServer(st)
	udpAddr, udpErrc := startServer(t, srv)
	respAddr, respErrc := startRESP(t, srv)
	defer srv.Close()
	k := []byte("k")
	if err := st.Set(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resps, err := c.Do([]Query{
		{Op: OpGet, Key: k},
		{Op: OpSet, Key: k, Value: []byte("v2")},
		{Op: OpGet, Key: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resps[1].Status != StatusOK {
		t.Fatalf("UDP SET = %+v", resps[1])
	}
	for _, i := range []int{0, 2} {
		if resps[i].Status != StatusOK || string(resps[i].Value) != "v2" {
			t.Fatalf("UDP GET %d = %d %q, want the frame's own write v2", i, resps[i].Status, resps[i].Value)
		}
	}

	rc, err := frontend.DialRESP(respAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	resps, err = rc.Do([]Query{
		{Op: OpGet, Key: k},
		{Op: OpSet, Key: k, Value: []byte("v3")},
		{Op: OpGet, Key: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Status != StatusOK || string(resps[0].Value) != "v2" {
		t.Fatalf("RESP GET before SET = %d %q, want v2", resps[0].Status, resps[0].Value)
	}
	if resps[1].Status != StatusOK {
		t.Fatalf("RESP SET = %+v", resps[1])
	}
	if resps[2].Status != StatusOK || string(resps[2].Value) != "v3" {
		t.Fatalf("RESP GET after SET = %d %q, want v3", resps[2].Status, resps[2].Value)
	}
	srv.Close()
	waitServe(t, udpErrc)
	waitServe(t, respErrc)
}
