package dido

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cuckoo"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/proto"
)

// startServer runs srv on an ephemeral port and returns its address and the
// Serve error channel.
func startServer(t *testing.T, srv *Server) (string, chan error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve("127.0.0.1:0") }()
	for i := 0; i < 500; i++ {
		if a := srv.Addr(); a != nil {
			return a.String(), errc
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never bound")
	return "", nil
}

func waitServe(t *testing.T, errc chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop")
	}
}

// TestCloseBeforeServe pins the Serve/Close race: a Close that lands before
// Serve publishes the conn must still shut the listener down.
func TestCloseBeforeServe(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	srv := NewServer(st)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve("127.0.0.1:0") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not notice the prior Close")
	}
}

// faultyServer builds a server over st whose pipeline executes against ls:
// st's batched surface (storeLive) with one method overridden to gate,
// count, stall or poison.
func faultyServer(t *testing.T, st *Store, ls pipeline.LiveStore, opts ServerOptions) *Server {
	t.Helper()
	srv, err := newServer(st, ls, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// panicStore poisons one key to prove the pipeline contains a panic to its
// frame: a batched read that includes it panics.
type panicStore struct{ storeLive }

func (p panicStore) poison(keys [][]byte) {
	for _, key := range keys {
		if string(key) == "boom" {
			panic("poisoned frame")
		}
	}
}

func (p panicStore) ReadCandidatesBatch(keys [][]byte, cands []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	p.poison(keys)
	return p.storeLive.ReadCandidatesBatch(keys, cands, lo, hi, vals, vlo, vhi)
}

func (p panicStore) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	p.poison(keys)
	return p.storeLive.GetBatch(keys, vals, vlo, vhi)
}

func TestServeLoopSurvivesPanickedFrame(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	srv := faultyServer(t, st, panicStore{storeLive{st.inner}}, ServerOptions{})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	c, err := DialOpts(addr, ClientOptions{Timeout: 50 * time.Millisecond, Retries: 1, Backoff: time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Get([]byte("boom")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("poisoned GET err = %v, want ErrTimeout", err)
	}
	// The serve loop must still be alive and serving.
	if err := c.Set([]byte("alive"), []byte("yes")); err != nil {
		t.Fatalf("server dead after poisoned frame: %v", err)
	}
	if v, ok, err := c.Get([]byte("alive")); err != nil || !ok || string(v) != "yes" {
		t.Fatalf("get after panic = %q %v %v", v, ok, err)
	}
	if p := srv.Stats().Panics; p < 1 {
		t.Fatalf("panics counter = %d, want >= 1", p)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestChaosRetryAbsorbsFaults is the chaos acceptance test: against a server
// behind the fault injector at 10% drop + 5% duplicate + 10% reorder (both
// directions), every request completes with zero client-visible errors — all
// loss absorbed by retry — and responses are matched to requests by ID (a
// mismatched or stale response would corrupt the per-key values checked
// below, and every acknowledged SET must have executed exactly once).
func TestChaosRetryAbsorbsFaults(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	cb := &countingStore{storeLive: storeLive{st.inner}}
	var injector *faults.Conn
	srv := faultyServer(t, st, cb, ServerOptions{
		WrapConn: func(pc net.PacketConn) net.PacketConn {
			injector = faults.Wrap(pc, faults.Symmetric(1234, faults.Profile{
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
			t.Fatalf("round %d SET: %v (client-visible error under chaos)", r, err)
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
			t.Fatalf("round %d GET: %v (client-visible error under chaos)", r, err)
		}
		for i, resp := range resps {
			want := fmt.Sprintf("val-%d-%d", r, i)
			if resp.Status != StatusOK || string(resp.Value) != want {
				t.Fatalf("round %d GET %d = %d %q, want OK %q (response/request mismatch)",
					r, i, resp.Status, resp.Value, want)
			}
		}
	}

	// At-most-once: despite duplicated and retried frames, each distinct
	// acknowledged SET ran exactly once.
	if n := cb.setCount(); n != totalSets {
		t.Fatalf("store executed %d SETs for %d distinct acknowledged SETs", n, totalSets)
	}
	fs := injector.Stats()
	if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
		t.Fatalf("injector idle: %+v", fs)
	}
	cs := c.Stats()
	if cs.Retries == 0 {
		t.Fatal("no retries under 10%% drop — faults not exercised")
	}
	ss := srv.Stats()
	t.Logf("chaos: faults=%+v client=%+v server={served:%d frames:%d replayed:%d dup-dropped:%d malformed:%d} pipe=%+v",
		fs, cs, ss.Served, ss.Frames, ss.Replayed, ss.DupDropped, ss.Malformed, srv.PipelineStats())
	srv.Close()
	waitServe(t, errc)
}

// TestChaosWithCorruption adds datagram corruption: the frame checksum must
// turn corrupted frames into drops (absorbed by retry), never into wrong
// answers.
func TestChaosWithCorruption(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	var injector *faults.Conn
	srv := NewServerOpts(st, ServerOptions{
		WrapConn: func(pc net.PacketConn) net.PacketConn {
			injector = faults.Wrap(pc, faults.Symmetric(77, faults.Profile{Drop: 0.05, Corrupt: 0.15}))
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
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 60; i++ {
		key := []byte(fmt.Sprintf("c:%d", i))
		want := fmt.Sprintf("v-%d", i)
		if err := c.Set(key, []byte(want)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		v, ok, err := c.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("get %d = %q %v %v, want %q", i, v, ok, err, want)
		}
	}
	if fs := injector.Stats(); fs.Corrupted == 0 {
		t.Fatalf("injector never corrupted: %+v", fs)
	}
	if ss := srv.Stats(); ss.Malformed == 0 {
		t.Fatal("server never saw a corrupted frame — checksum path not exercised")
	}
	srv.Close()
	waitServe(t, errc)
}

// TestV1FrameDroppedAsMalformed pins that the server speaks only DKV2: a
// frame in the retired version-1 layout (magic 'D','K','V','1' and a count,
// with no request ID and no checksum) gets no reply and counts as one
// malformed frame, and the server goes on answering DKV2.
func TestV1FrameDroppedAsMalformed(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	srv := NewServer(st)
	addr, errc := startServer(t, srv)
	defer srv.Close()

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, proto.MaxFrameBytes)
	get := proto.Query{Op: proto.OpGet, Key: []byte("k")}

	v1 := proto.AppendQuery([]byte{'D', 'K', 'V', '1', 1, 0}, get)
	before := srv.Stats().Malformed
	if _, err := conn.Write(v1); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("v1 frame answered with %d bytes", n)
	}
	if got := srv.Stats().Malformed - before; got != 1 {
		t.Fatalf("malformed rose by %d, want 1", got)
	}

	if _, err := conn.Write(proto.EncodeFrameV2(nil, 42, []proto.Query{get})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("DKV2 frame after a v1 one: %v", err)
	}
	rs, id, _, err := proto.ParseResponseFrameID(buf[:n], nil)
	if err != nil || id != 42 || len(rs) != 1 || rs[0].Status != proto.StatusNotFound {
		t.Fatalf("DKV2 reply = %+v id %d, %v", rs, id, err)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestOverloadShedsWithBusy is the overload acceptance test: at an offered
// load exceeding the in-flight budget the server sheds with StatusBusy
// (visible in both server and client counters) while the latency of admitted
// requests stays bounded.
func TestOverloadShedsWithBusy(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	// Every SET stalls 5ms, so two in-flight frames saturate the server
	// while requests arrive from eight clients at once.
	slow := stallStore{storeLive{st.inner}, 5 * time.Millisecond}
	srv := faultyServer(t, st, slow, ServerOptions{MaxInFlight: 2})
	addr, errc := startServer(t, srv)
	defer srv.Close()

	const clients = 8
	const perClient = 15
	var (
		mu        sync.Mutex
		latencies []time.Duration
		okCount   int
		busyCount int
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
				start := time.Now()
				_, err := c.Do([]Query{{Op: OpSet, Key: []byte(fmt.Sprintf("c%d-k%d", ci, i)), Value: []byte("v")}})
				el := time.Since(start)
				mu.Lock()
				switch {
				case err == nil:
					okCount++
					latencies = append(latencies, el)
				case errors.Is(err, ErrBusy):
					busyCount++
				default:
					t.Errorf("client %d req %d: %v", ci, i, err)
				}
				mu.Unlock()
			}
			mu.Lock()
			busyRound += c.Stats().BusyRounds
			mu.Unlock()
		}(ci)
	}
	wg.Wait()

	ss := srv.Stats()
	if ss.Shed == 0 {
		t.Fatalf("server never shed at %d clients over budget 2: %+v", clients, ss)
	}
	if busyRound == 0 {
		t.Fatal("no client observed StatusBusy")
	}
	if okCount == 0 {
		t.Fatal("no request was admitted")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	// Shedding instead of queuing keeps admitted-request latency near the
	// service time (5ms stall + a few busy/backoff rounds), far under the
	// client timeout.
	if p99 > 250*time.Millisecond {
		t.Fatalf("p99 of admitted requests = %v — shedding failed to bound latency", p99)
	}
	t.Logf("overload: ok=%d busy-failed=%d busy-rounds=%d shed=%d p99=%v",
		okCount, busyCount, busyRound, ss.Shed, p99)
	srv.Close()
	waitServe(t, errc)
}

// stallStore sleeps before every Set, modeling a stalled allocator.
type stallStore struct {
	storeLive
	stall time.Duration
}

func (b stallStore) Set(key, value []byte) error {
	time.Sleep(b.stall)
	return b.storeLive.Set(key, value)
}

// countingStore counts Set executions to prove at-most-once retries.
type countingStore struct {
	storeLive
	sets int
	mu   sync.Mutex
}

func (b *countingStore) Set(key, value []byte) error {
	b.mu.Lock()
	b.sets++
	b.mu.Unlock()
	return b.storeLive.Set(key, value)
}
func (b *countingStore) setCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sets
}

// TestRetriedSetExecutesOnce sends the same v2 frame twice (a retry) and
// checks the SET executed once, with the second frame answered from the
// reply cache.
func TestRetriedSetExecutesOnce(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	cb := &countingStore{storeLive: storeLive{st.inner}}
	srv := faultyServer(t, st, cb, ServerOptions{})
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

	frame := proto.EncodeFrameV2(nil, 424242, []Query{{Op: OpSet, Key: []byte("once"), Value: []byte("v")}})
	buf := make([]byte, proto.MaxFrameBytes)
	readResp := func() []proto.Response {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		rs, id, off, err := proto.ParseResponseFrameID(buf[:n], nil)
		if err != nil || id != 424242 || off != 0 {
			t.Fatalf("response = id %d off %d err %v", id, off, err)
		}
		return rs
	}

	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("first response = %+v", rs)
	}
	// Retry the exact same frame: must be answered, not re-executed.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("replayed response = %+v", rs)
	}
	if n := cb.setCount(); n != 1 {
		t.Fatalf("SET executed %d times, want 1", n)
	}
	if ss := srv.Stats(); ss.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", ss.Replayed)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestDoReturnsNilOnError pins the error contract (regression for the
// partial-read leak): a Do that fails must return nil responses, never a
// partially-filled slice aliasing the receive buffer.
func TestDoReturnsNilOnError(t *testing.T) {
	// A hand-rolled server that answers only the first of two queries, ever.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, proto.MaxFrameBytes)
		for {
			n, raddr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if _, id, err := proto.ParseFrameID(buf[:n], nil); err == nil {
				half := proto.EncodeResponseFrameV2(nil, id, 0, []proto.Response{
					{Status: proto.StatusOK, Value: []byte("partial")},
				})
				pc.WriteTo(half, raddr)
			}
		}
	}()

	c, err := DialOpts(pc.LocalAddr().String(), ClientOptions{
		Timeout: 60 * time.Millisecond,
		Retries: 1,
		Backoff: time.Millisecond,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resps, err := c.Do([]Query{
		{Op: OpGet, Key: []byte("a")},
		{Op: OpGet, Key: []byte("b")},
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if resps != nil {
		t.Fatalf("resps = %+v, want nil on error (no partial results)", resps)
	}
	if c.Stats().Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", c.Stats().Timeouts)
	}
}

// TestEvictionPressureServing checks the arena-full serving path end to end
// over UDP: SETs that the store cannot absorb are answered with StatusError
// — the frame is never dropped — and other queries in the same frame still
// execute.
func TestEvictionPressureServing(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 2 << 20})
	srv := NewServer(st)
	addr, errc := startServer(t, srv)
	defer srv.Close()

	c, err := DialOpts(addr, ClientOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// An object beyond the largest slab class can never be stored.
	huge := make([]byte, 20<<10)
	resps, err := c.Do([]Query{{Op: OpSet, Key: []byte("huge"), Value: huge}})
	if err != nil {
		t.Fatalf("oversized SET frame dropped: %v", err)
	}
	if resps[0].Status != StatusError {
		t.Fatalf("oversized SET status = %d, want StatusError", resps[0].Status)
	}

	// Fill the arena with large objects until eviction churns.
	big := make([]byte, 12<<10)
	for i := 0; i < 300; i++ {
		resps, err := c.Do([]Query{{Op: OpSet, Key: []byte(fmt.Sprintf("big:%03d", i)), Value: big}})
		if err != nil {
			t.Fatalf("fill SET %d: %v", i, err)
		}
		if resps[0].Status != StatusOK {
			t.Fatalf("fill SET %d status = %d", i, resps[0].Status)
		}
	}
	if ev := st.Stats().Evictions; ev == 0 {
		t.Fatal("arena never came under pressure — test sized wrong")
	}

	// A small object needs a class the exhausted arena cannot grow; the
	// server must answer StatusError and still serve the GET in-frame.
	resps, err = c.Do([]Query{
		{Op: OpSet, Key: []byte("small"), Value: []byte("x")},
		{Op: OpGet, Key: []byte("big:299")},
	})
	if err != nil {
		t.Fatalf("pressure frame dropped: %v", err)
	}
	if resps[0].Status != StatusError {
		t.Fatalf("no-memory SET status = %d, want StatusError", resps[0].Status)
	}
	if resps[1].Status != StatusOK || len(resps[1].Value) != len(big) {
		t.Fatalf("GET in pressure frame = %d (%d bytes)", resps[1].Status, len(resps[1].Value))
	}
	srv.Close()
	waitServe(t, errc)
}
