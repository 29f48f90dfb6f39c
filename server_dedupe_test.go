package dido

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/proto"
)

// gatedStore parks every Set on a gate so a test can hold a request
// in-flight for as long as it likes, and counts executions.
type gatedStore struct {
	storeLive
	entered chan struct{} // signaled once per Set call, before blocking
	release chan struct{} // closed to let parked Sets proceed

	mu   sync.Mutex
	sets int
}

func (b *gatedStore) Set(key, value []byte) error {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	b.mu.Lock()
	b.sets++
	b.mu.Unlock()
	return b.storeLive.Set(key, value)
}
func (b *gatedStore) setCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sets
}

// TestDuplicateWhileInFlightExecutesOnce pins the at-most-once hole the
// reply cache alone cannot close: a retry arriving while the original
// request is still executing finds no cached reply yet, and before in-flight
// tracking it was admitted as a second execution. The duplicate must be
// dropped, the SET must run once, and a later retry must be answered from
// the cache.
func TestDuplicateWhileInFlightExecutesOnce(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	gb := &gatedStore{
		storeLive: storeLive{st.inner},
		entered:   make(chan struct{}, 8),
		release:   make(chan struct{}),
	}
	srv := faultyServer(t, st, gb, ServerOptions{})
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

	frame := proto.EncodeFrameV2(nil, 31337, []Query{{Op: OpSet, Key: []byte("dup"), Value: []byte("v")}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gb.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("original SET never reached the store")
	}

	// Retry while the original is parked inside the store. The server must
	// drop it rather than execute the SET a second time.
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
		if err != nil || id != 31337 {
			t.Fatalf("response id %d err %v", id, err)
		}
		return rs
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("original response = %+v", rs)
	}

	// A retry after completion replays from the cache without re-execution.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("replayed response = %+v", rs)
	}

	if n := gb.setCount(); n != 1 {
		t.Fatalf("SET executed %d times, want 1", n)
	}
	ss := srv.Stats()
	if ss.DupDropped != 1 {
		t.Fatalf("dup-dropped = %d, want 1", ss.DupDropped)
	}
	if ss.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", ss.Replayed)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestAbortedFrameAllowsRetry checks that a tracked frame whose processing
// dies without producing a reply (here: a panicking store) clears its
// in-flight marker, so a retry is admitted instead of dropped forever.
func TestAbortedFrameAllowsRetry(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	pb := &panicOnceStore{storeLive: storeLive{st.inner}}
	srv := faultyServer(t, st, pb, ServerOptions{})
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

	frame := proto.EncodeFrameV2(nil, 90210, []Query{{Op: OpSet, Key: []byte("retry"), Value: []byte("v")}})
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

	// The first attempt died; its in-flight marker must be gone so the retry
	// executes (rather than being treated as a duplicate).
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, proto.MaxFrameBytes)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("retry after aborted frame got no reply: %v", err)
	}
	rs, id, _, err := proto.ParseResponseFrameID(buf[:n], nil)
	if err != nil || id != 90210 || len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("retry response = %+v id %d err %v", rs, id, err)
	}
	if v, ok := st.Get([]byte("retry")); !ok || string(v) != "v" {
		t.Fatalf("retried SET not applied: %q/%v", v, ok)
	}
	srv.Close()
	waitServe(t, errc)
}

// panicOnceStore panics on the first Set and behaves normally after.
type panicOnceStore struct {
	storeLive
	mu    sync.Mutex
	calls int
}

func (b *panicOnceStore) Set(key, value []byte) error {
	b.mu.Lock()
	b.calls++
	first := b.calls == 1
	b.mu.Unlock()
	if first {
		panic("injected")
	}
	return b.storeLive.Set(key, value)
}

// retryingResponder is a frontend whose client resends its request the
// instant the reply reaches the socket: the first delivery re-admits a
// duplicate of the frame before it returns — the retry that used to land
// between the send and the reply-cache fill.
type retryingResponder struct {
	srv *Server

	mu      sync.Mutex
	sent    [][][]byte // units of every delivered frame, in order
	retried bool
	done    chan struct{} // closed by the original frame's Release
}

func (r *retryingResponder) Encode(f *frontend.Frame, resps []proto.Response) [][]byte {
	return frontend.AppendResponseFrames(nil, f.ReqID, resps)
}

func (r *retryingResponder) DeliverBatch(fs []*frontend.Frame) {
	for _, f := range fs {
		r.mu.Lock()
		r.sent = append(r.sent, f.Units)
		first := !r.retried
		r.retried = true
		r.mu.Unlock()
		if first {
			dup := &frontend.Frame{AKey: f.AKey, ReqID: f.ReqID, R: r, Ctx: "dup"}
			if r.srv.Admit(dup) {
				r.srv.Cancel(dup) // admitted for a second execution: the counters below catch it
			}
		}
	}
}
func (r *retryingResponder) Busy(*frontend.Frame)         {}
func (r *retryingResponder) Fail(*frontend.Frame, string) {}
func (r *retryingResponder) Release(f *frontend.Frame) {
	if f.Ctx == nil {
		close(r.done)
	}
}

// TestRetryBetweenSendAndCacheFillIsReplayed forces the interleaving behind
// the tier-1 flake on both completion paths — a pipeline batch (in either
// batch shape) and a query-less frame answered inline: a retry that arrives
// while the original reply is being sent must be replayed from the cache
// (filled before the send), not classified in-flight and dropped.
func TestRetryBetweenSendAndCacheFillIsReplayed(t *testing.T) {
	set := []Query{{Op: OpSet, Key: []byte("k"), Value: []byte("v")}}
	for _, c := range []struct {
		name    string
		opts    ServerOptions
		queries []Query
	}{
		{"per-frame", ServerOptions{Pipeline: &PipelineOptions{MaxBatch: 1}}, set},
		{"pipelined", ServerOptions{}, set},
		{"query-less", ServerOptions{}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := NewServerOpts(NewStore(StoreConfig{MemoryBytes: 4 << 20}), c.opts)
			defer srv.Close()
			r := &retryingResponder{srv: srv, done: make(chan struct{})}
			f := &frontend.Frame{AKey: "client", ReqID: 42, Queries: c.queries, R: r}
			if !srv.Admit(f) {
				t.Fatal("original frame not admitted")
			}
			srv.Submit(f)
			select {
			case <-r.done:
			case <-time.After(5 * time.Second):
				t.Fatal("original frame never completed")
			}
			if ss := srv.Stats(); ss.Replayed != 1 || ss.DupDropped != 0 || ss.Malformed != 0 {
				t.Fatalf("retry during the send: replayed=%d dup-dropped=%d re-admitted=%d, want 1/0/0",
					ss.Replayed, ss.DupDropped, ss.Malformed)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if len(r.sent) != 2 || !reflect.DeepEqual(r.sent[0], r.sent[1]) {
				t.Fatalf("%d deliveries, want the reply and its identical replay", len(r.sent))
			}
		})
	}
}
