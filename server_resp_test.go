package dido

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cuckoo"
	"repro/internal/faults"
	"repro/internal/frontend"
)

// startRESP starts the RESP frontend on a free port and waits for the bind.
func startRESP(t *testing.T, srv *Server) (string, chan error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeRESP("127.0.0.1:0") }()
	for i := 0; i < 500; i++ {
		if a := srv.RESPAddr(); a != nil {
			return a.String(), errc
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("RESP frontend never bound")
	return "", nil
}

// startRESPServer serves a fresh store over RESP with pipeline options po
// and otherwise default options, and returns the address; the server is
// closed, and its serve loop checked, when the test ends. A deep alternating
// read/write pipeline seals into many small frames; a connection's reader
// runs them one at a time, so none is shed and no option needs lifting.
func startRESPServer(t *testing.T, po *PipelineOptions) string {
	t.Helper()
	srv := NewServerOpts(NewStore(StoreConfig{MemoryBytes: 8 << 20}), ServerOptions{Pipeline: po})
	addr, errc := startRESP(t, srv)
	t.Cleanup(func() {
		srv.Close()
		waitServe(t, errc)
	})
	return addr
}

func TestServeRESPBasic(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		addr := startRESPServer(t, po)
		c, err := frontend.DialRESP(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		resps, err := c.Do([]Query{
			{Op: OpSet, Key: []byte("a"), Value: []byte("1")},
			{Op: OpSet, Key: []byte("b"), Value: []byte("two")},
			{Op: OpGet, Key: []byte("a")},
			{Op: OpGet, Key: []byte("nope")},
			{Op: OpDelete, Key: []byte("a")},
			{Op: OpGet, Key: []byte("a")},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantStatus := []Status{StatusOK, StatusOK, StatusOK, StatusNotFound, StatusOK, StatusNotFound}
		for i, r := range resps {
			if r.Status != wantStatus[i] {
				t.Fatalf("resp %d: status %v, want %v (%+v)", i, r.Status, wantStatus[i], r)
			}
		}
		if string(resps[2].Value) != "1" {
			t.Fatalf("GET a = %q, want 1", resps[2].Value)
		}
		mg, err := c.MGet([]byte("b"), []byte("missing"))
		if err != nil {
			t.Fatal(err)
		}
		if mg[0].Status != StatusOK || string(mg[0].Value) != "two" || mg[1].Status != StatusNotFound {
			t.Fatalf("MGET: %+v", mg)
		}
		// Unknown commands and arity errors answer in-band.
		if v, err := c.Cmd([]byte("FLUSHALL")); err != nil || !bytes.Contains(v.Err(), []byte("unknown command")) {
			t.Fatalf("FLUSHALL: %v %q", err, v.Err())
		}
	})
}

// TestServeRESPPipelinedDuplicates writes a burst of pipelined commands with
// duplicate keys and duplicate whole commands in one TCP write; RESP has no
// request IDs, so every command must be executed and answered, in order.
func TestServeRESPPipelinedDuplicates(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		addr := startRESPServer(t, po)
		c, err := frontend.DialRESP(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const n = 64
		qs := make([]Query, 0, 2*n)
		for i := 0; i < n; i++ {
			// Same key set twice with different values: reply order is the
			// only thing that makes the final value deterministic.
			qs = append(qs, Query{Op: OpSet, Key: []byte("dup"), Value: []byte(fmt.Sprintf("v%d", i))})
			qs = append(qs, Query{Op: OpGet, Key: []byte("dup")})
		}
		resps, err := c.Do(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			set, get := resps[2*i], resps[2*i+1]
			if set.Status != StatusOK {
				t.Fatalf("SET %d: %+v", i, set)
			}
			want := fmt.Sprintf("v%d", i)
			if get.Status != StatusOK || string(get.Value) != want {
				t.Fatalf("GET %d = %q (%v), want %q: in-order pipelining broken", i, get.Value, get.Status, want)
			}
		}
	})
}

// TestServeRESPFaultyConn drives the server through a stream fault injector
// in two regimes. "torn" (stalls + 1-byte short reads) must be invisible:
// the parser reassembles commands across arbitrary read boundaries, so every
// batch must come back exactly right. "corrupt" adds bit flips to the
// server's reads; a flipped byte may poison the connection or even mangle a
// command into a different valid one, so the assertion there is robustness —
// no panics, and the server keeps serving new connections.
func TestServeRESPFaultyConn(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		regimes := []struct {
			name    string
			cfg     faults.StreamConfig
			corrupt bool
		}{
			{"torn", faults.StreamConfig{Seed: 7, StallRate: 0.05, Stall: time.Millisecond, ShortRate: 0.7}, false},
			{"corrupt", faults.StreamConfig{Seed: 11, StallRate: 0.05, Stall: time.Millisecond, ShortRate: 0.5, CorruptRate: 0.01}, true},
		}
		for _, rg := range regimes {
			rg := rg
			t.Run(rg.name, func(t *testing.T) {
				opts := ServerOptions{
					WrapStreamConn: func(c net.Conn) net.Conn { return faults.WrapStream(c, rg.cfg) },
					Pipeline:       po,
				}
				st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
				srv := NewServerOpts(st, opts)
				addr, errc := startRESP(t, srv)
				defer srv.Close()

				okBatches := 0
				var c *frontend.RESPClient
				rounds := 30
				for round := 0; round < rounds; round++ {
					if c == nil {
						var err error
						if c, err = frontend.DialRESP(addr, 5*time.Second); err != nil {
							t.Fatal(err)
						}
					}
					key := []byte(fmt.Sprintf("f%d", round))
					qs := []Query{
						{Op: OpSet, Key: key, Value: []byte("v")},
						{Op: OpGet, Key: key},
						{Op: OpGet, Key: key}, // duplicate pipelined command
					}
					resps, err := c.Do(qs)
					if err != nil {
						if !rg.corrupt {
							t.Fatalf("round %d: torn reads must not fail a batch: %v", round, err)
						}
						// Corruption legitimately poisons the connection (the
						// server replies -ERR Protocol error and closes, or a
						// command was mangled into garbage). Reconnect, go on.
						c.Close()
						c = nil
						continue
					}
					okBatches++
					if rg.corrupt {
						continue // mangled-but-valid commands make exact checks unsound
					}
					if resps[0].Status != StatusOK {
						t.Fatalf("round %d: SET not acked: %+v", round, resps[0])
					}
					for i := 1; i <= 2; i++ {
						if resps[i].Status != StatusOK || string(resps[i].Value) != "v" {
							t.Fatalf("round %d: GET %d = %+v, want v", round, i, resps[i])
						}
					}
				}
				if c != nil {
					c.Close()
				}
				if okBatches == 0 {
					t.Fatal("no batch survived the fault injector; rates too hot for a meaningful test")
				}
				if ss := srv.Stats(); ss.Panics != 0 {
					t.Fatalf("server panicked %d times under stream faults", ss.Panics)
				}
				// The server must still serve new connections; the wrapper
				// applies to them too, so tolerate a few corrupted attempts.
				alive := false
				for i := 0; i < 10 && !alive; i++ {
					cc, err := frontend.DialRESP(addr, 2*time.Second)
					if err == nil {
						alive = cc.Ping() == nil
						cc.Close()
					}
				}
				if !alive {
					t.Fatal("server unreachable after faulty traffic")
				}
				srv.Close()
				waitServe(t, errc)
			})
		}
	})
}

// TestServeRESPOversizedCommand regression-tests a remotely triggerable spin:
// a single command whose encoding exceeds the whole-command budget, with the
// buffered prefix ending at an arg boundary, used to parse as "incomplete"
// forever while the read buffer was already at its cap — an infinite
// zero-length-read loop at 100% CPU. The server must instead answer with a
// protocol error, close the connection, and keep serving others.
func TestServeRESPOversizedCommand(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		addr := startRESPServer(t, po)
		// ~550 complete 2KB args of a declared 1024-arg MGET: > 1.09MB of
		// prefix, every byte of it ending on an arg boundary.
		payload := []byte("*1024\r\n$4\r\nMGET\r\n")
		arg := []byte("$2048\r\n" + strings.Repeat("k", 2048) + "\r\n")
		for len(payload) <= 1<<20+64<<10 {
			payload = append(payload, arg...)
		}
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		if _, err := nc.Write(payload); err != nil {
			// The server may have already rejected and closed mid-write;
			// that's the behavior under test, not a failure.
			t.Logf("write cut short (server closed early): %v", err)
		}
		var reply bytes.Buffer
		buf := make([]byte, 4096)
		for {
			n, err := nc.Read(buf)
			reply.Write(buf[:n])
			if err != nil {
				break // EOF: the server closed the connection
			}
		}
		if !bytes.Contains(reply.Bytes(), []byte("Protocol error: command too large")) {
			t.Fatalf("reply %q, want a command-too-large protocol error", reply.String())
		}
		// The listener must still be healthy.
		c, err := frontend.DialRESP(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatalf("server unhealthy after oversized command: %v", err)
		}
	})
}

// TestServeRESPMaxConns pins connection-scale admission: with MaxConns=1 the
// second connection is told the budget is spent and closed at accept.
func TestServeRESPMaxConns(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	srv := NewServerOpts(st, ServerOptions{MaxConns: 1})
	addr, errc := startRESP(t, srv)
	defer srv.Close()

	c1, err := frontend.DialRESP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}

	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	n, _ := nc.Read(buf)
	if !strings.Contains(string(buf[:n]), "max number of clients") {
		t.Fatalf("second conn got %q, want max-clients error", buf[:n])
	}
	if ss := srv.Stats(); ss.ConnsShed == 0 {
		t.Fatalf("ConnsShed not accounted: %+v", ss)
	}

	// Releasing the first connection frees the budget.
	c1.Close()
	var c2 *frontend.RESPClient
	for i := 0; i < 100; i++ {
		c2, err = frontend.DialRESP(addr, 2*time.Second)
		if err == nil && c2.Ping() == nil {
			break
		}
		if c2 != nil {
			c2.Close()
			c2 = nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c2 == nil {
		t.Fatal("budget never freed after first conn closed")
	}
	c2.Close()
	srv.Close()
	waitServe(t, errc)
}

// slowReadStore delays every batched read so a frame stays in flight long
// enough to pile a second one onto the same connection.
type slowReadStore struct {
	storeLive
	delay time.Duration
}

func (b slowReadStore) ReadCandidatesBatch(keys [][]byte, cands []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	time.Sleep(b.delay)
	return b.storeLive.ReadCandidatesBatch(keys, cands, lo, hi, vals, vlo, vhi)
}

func (b slowReadStore) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	time.Sleep(b.delay)
	return b.storeLive.GetBatch(keys, vals, vlo, vhi)
}

// TestServeRESPPerConnInFlight pins a connection's one-frame-at-a-time
// contract: a second frame sent while the first is executing waits for it —
// answered after it, not shed with -BUSY — and the connection stays usable.
func TestServeRESPPerConnInFlight(t *testing.T) {
	const delay = 300 * time.Millisecond
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	srv := faultyServer(t, st, slowReadStore{storeLive{st.inner}, delay}, ServerOptions{})
	addr, errc := startRESP(t, srv)
	defer srv.Close()

	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	start := time.Now()
	if _, err := nc.Write([]byte("GET slow\r\n")); err != nil {
		t.Fatal(err)
	}
	// Let the first frame reach the store, then send a second one.
	time.Sleep(100 * time.Millisecond)
	if _, err := nc.Write([]byte("GET slow\r\n")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	want := "$-1\r\n$-1\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(nc, got); err != nil || string(got) != want {
		t.Fatalf("read %q, %v; want %q (both GETs answered, none -BUSY)", got, err, want)
	}
	// The second GET ran after the first finished, not beside it.
	if d := time.Since(start); d < 2*delay-50*time.Millisecond {
		t.Fatalf("both GETs answered after %v: the second did not wait for the first (%v each)", d, delay)
	}
	if _, err := nc.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len("+PONG\r\n"))
	if _, err := io.ReadFull(nc, got); err != nil || string(got) != "+PONG\r\n" {
		t.Fatalf("PING read %q, %v", got, err)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestServeRESPPipelineNoBusy: on a default server, deep pipelines on one
// connection — alternating SET/GET pairs that seal one frame per command,
// then a GET burst of 128 full frames, each sent in one write — are
// answered in full and in order, none with -BUSY.
func TestServeRESPPipelineNoBusy(t *testing.T) {
	addr := startRESPServer(t, nil)
	c, err := frontend.DialRESP(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pairs = 100
	val := func(i int) string { return fmt.Sprintf("v%d", i%pairs) }
	qs := make([]Query, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		k := []byte(fmt.Sprintf("p%d", i))
		qs = append(qs, Query{Op: OpSet, Key: k, Value: []byte(val(i))}, Query{Op: OpGet, Key: k})
	}
	checkNoBusy := func(what string, resps []Response, want func(i int) string) {
		t.Helper()
		busy, first := 0, -1
		for i, r := range resps {
			if r.Status == StatusBusy {
				if busy++; first < 0 {
					first = i
				}
			}
		}
		if busy > 0 {
			t.Fatalf("%s: %d of %d replies were -BUSY (first at %d)", what, busy, len(resps), first)
		}
		for i, r := range resps {
			if w := want(i); w == "" && r.Status != StatusOK ||
				w != "" && (r.Status != StatusOK || string(r.Value) != w) {
				t.Fatalf("%s: reply %d = %q (%v), want %q: in-order pipelining broken", what, i, r.Value, r.Status, w)
			}
		}
	}
	resps, err := c.Do(qs)
	if err != nil {
		t.Fatal(err)
	}
	checkNoBusy("SET/GET pairs", resps, func(i int) string {
		if i%2 == 0 {
			return "" // SET: +OK
		}
		return val(i / 2)
	})

	const burst = 32768
	qs = qs[:0]
	for i := 0; i < burst; i++ {
		qs = append(qs, Query{Op: OpGet, Key: []byte(fmt.Sprintf("p%d", i%pairs))})
	}
	if resps, err = c.Do(qs); err != nil {
		t.Fatal(err)
	}
	checkNoBusy("GET burst", resps, val)
}

// TestServeRESPLateReaderNoDeadlock: a client that writes its whole pipeline
// before reading any reply, with commands (~1.6 MB) and replies (~17 MB) far
// beyond the socket buffers, gets every reply in order. The connection's
// reader keeps executing frames while the writer is blocked on the client's
// full receive window; a reader that wrote its own replies would block on
// that write and stop reading, the client's write would block in turn, and
// neither side would move until a write timeout tore the connection down.
func TestServeRESPLateReaderNoDeadlock(t *testing.T) {
	// Small buffers on both ends, so neither the commands nor the replies fit
	// in the kernel whatever the host's TCP autotuning limits are.
	shrink := func(nc net.Conn) net.Conn {
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetReadBuffer(64 << 10)  //nolint:errcheck
			tc.SetWriteBuffer(64 << 10) //nolint:errcheck
		}
		return nc
	}
	srv := NewServerOpts(NewStore(StoreConfig{MemoryBytes: 8 << 20}), ServerOptions{WrapStreamConn: shrink})
	addr, errc := startRESP(t, srv)
	defer func() {
		srv.Close()
		waitServe(t, errc)
	}()
	const keys = 16
	sets := make([]Query, keys)
	for j := range sets {
		sets[j] = Query{Op: OpSet, Key: []byte(fmt.Sprintf("late%d", j)), Value: bytes.Repeat([]byte{byte('a' + j)}, 256)}
	}
	c, err := frontend.DialRESP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(sets); err != nil {
		t.Fatal(err)
	}
	c.Close()

	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer shrink(nc).Close()
	const n = 64 << 10
	var cmds, want []byte
	for i := 0; i < n; i++ {
		q := sets[i%keys]
		cmds = fmt.Appendf(cmds, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(q.Key), q.Key)
		want = fmt.Appendf(want, "$%d\r\n%s\r\n", len(q.Value), q.Value)
	}
	start := time.Now()
	nc.SetDeadline(start.Add(10 * time.Second)) //nolint:errcheck
	if _, err := nc.Write(cmds); err != nil {
		t.Fatalf("writing the pipeline, after %v: %v", time.Since(start), err)
	}
	got := make([]byte, len(want))
	if n, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("read %d of %d reply bytes in %v: %v", n, len(want), time.Since(start), err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("replies differ from byte %d: got %.32q…, want %.32q…", i, got[i:], want[i:])
	}
}

// TestServeRESPDurable pins commit-before-ack over RESP: every acked SET must
// be readable after a restart from the same durability directory.
func TestServeRESPDurable(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, string, chan error) {
		st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
		srv, err := NewServerDurable(st, ServerOptions{Durability: &DurabilityOptions{Dir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		addr, errc := startRESP(t, srv)
		return srv, addr, errc
	}

	srv, addr, errc := open()
	c, err := frontend.DialRESP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	qs := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, Query{Op: OpSet, Key: []byte(fmt.Sprintf("d%d", i)), Value: []byte(fmt.Sprintf("val%d", i))})
	}
	resps, err := c.Do(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status != StatusOK {
			t.Fatalf("SET %d not acked: %+v", i, r)
		}
	}
	c.Close()
	srv.Close()
	waitServe(t, errc)

	srv2, addr2, errc2 := open()
	defer srv2.Close()
	c2, err := frontend.DialRESP(addr2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < n; i++ {
		qs2 := []Query{{Op: OpGet, Key: []byte(fmt.Sprintf("d%d", i))}}
		rs, err := c2.Do(qs2)
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Status != StatusOK || string(rs[0].Value) != fmt.Sprintf("val%d", i) {
			t.Fatalf("acked SET d%d lost across restart: %+v", i, rs[0])
		}
	}
	srv2.Close()
	waitServe(t, errc2)
}

// heldWriteConn holds the server's first reply write until release closes,
// and reports on events whether Close or SetWriteDeadline reached the
// connection while that write was held.
type heldWriteConn struct {
	net.Conn
	once    sync.Once
	held    chan struct{} // closed once the first Write is being held
	release chan struct{}
	holding atomic.Bool
	events  chan string // "close" or "deadline", sent while holding
}

func (c *heldWriteConn) Write(b []byte) (int, error) {
	c.once.Do(func() {
		c.holding.Store(true)
		close(c.held)
		<-c.release
		c.holding.Store(false)
	})
	return c.Conn.Write(b)
}

func (c *heldWriteConn) note(ev string) {
	if c.holding.Load() {
		select {
		case c.events <- ev:
		default:
		}
	}
}

func (c *heldWriteConn) SetWriteDeadline(t time.Time) error {
	c.note("deadline")
	return c.Conn.SetWriteDeadline(t)
}

func (c *heldWriteConn) Close() error {
	c.note("close")
	return c.Conn.Close()
}

// TestRESPCloseWaitsForReplyFlush: Server.Close that runs while a frame's
// reply is mid-flush must let the flush finish before it closes the socket;
// the client still reads its reply.
func TestRESPCloseWaitsForReplyFlush(t *testing.T) {
	conns := make(chan *heldWriteConn, 1)
	srv := NewServerOpts(NewStore(StoreConfig{MemoryBytes: 8 << 20}), ServerOptions{
		WrapStreamConn: func(nc net.Conn) net.Conn {
			hc := &heldWriteConn{Conn: nc, held: make(chan struct{}),
				release: make(chan struct{}), events: make(chan string, 1)}
			conns <- hc
			return hc
		},
	})
	addr, errc := startRESP(t, srv)
	defer srv.Close()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n")); err != nil {
		t.Fatal(err)
	}
	hc := <-conns
	select {
	case <-hc.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the reply was never written")
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	var ev string
	select {
	case ev = <-hc.events:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never reached the connection")
	}
	close(hc.release)
	if ev == "close" {
		t.Error("Close closed the connection while its reply was mid-flush")
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	got := make([]byte, 5)
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "+OK\r\n" {
		t.Fatalf("client read %q, %v; want the full reply +OK", got, err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the flush")
	}
	waitServe(t, errc)
}

// TestRESPCloseBoundsStalledFlush: a client that never reads its replies
// cannot hold Server.Close for the full write timeout — Shutdown cuts every
// running flush to shutdownWriteTimeout.
func TestRESPCloseBoundsStalledFlush(t *testing.T) {
	srv := NewServerOpts(NewStore(StoreConfig{MemoryBytes: 8 << 20}), ServerOptions{})
	addr, errc := startRESP(t, srv)
	defer srv.Close()
	c, err := frontend.DialRESP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("v"), 15000)
	if rs, err := c.Do([]Query{{Op: OpSet, Key: []byte("big"), Value: val}}); err != nil || rs[0].Status != StatusOK {
		t.Fatalf("SET big: %v %+v", err, rs)
	}
	// One MGET of the key 1000 times: ~15 MB of reply, far more than the
	// socket buffers hold, and the client never reads it.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var cmd bytes.Buffer
	fmt.Fprintf(&cmd, "*1001\r\n$4\r\nMGET\r\n")
	for i := 0; i < 1000; i++ {
		cmd.WriteString("$3\r\nbig\r\n")
	}
	if _, err := raw.Write(cmd.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Let the reply fill the socket buffers and the flush block.
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > shutdownBound {
		t.Fatalf("Close took %v with a stalled client, want < %v", d, shutdownBound)
	}
	waitServe(t, errc)
}

// shutdownBound is what a stalled flush may add to Server.Close: the RESP
// shutdown write timeout (1 s) plus scheduling slack, well under the 3 s a
// supervisor gives a server between SIGTERM and SIGKILL.
const shutdownBound = 2500 * time.Millisecond
