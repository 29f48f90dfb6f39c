package frontend

import (
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
)

// heldCore is a Core whose Submit hands each frame to the test, which then
// plays the pipeline: it delivers and releases the frame when it chooses.
type heldCore struct {
	submits  chan *Frame
	admits   atomic.Int32
	draining atomic.Bool
}

func (c *heldCore) Admit(f *Frame) bool { c.admits.Add(1); return true }
func (c *heldCore) Submit(f *Frame)     { c.submits <- f }
func (c *heldCore) Cancel(f *Frame)     { f.R.Release(f) }
func (c *heldCore) Malformed()          {}
func (c *heldCore) Draining() bool      { return c.draining.Load() }

// deliver answers every query of f with st and value, as the pipeline's SD
// task does, without releasing f.
func deliver(f *Frame, st proto.Status, value []byte) {
	resps := make([]proto.Response, len(f.Queries))
	for i := range resps {
		resps[i] = proto.Response{Status: st, Value: value}
	}
	f.Units = f.R.Encode(f, resps)
	f.R.DeliverBatch([]*Frame{f})
}

// stackConn records, for every reply write, whether it ran on the
// connection's writer goroutine.
type stackConn struct {
	net.Conn
	mu     sync.Mutex
	stacks []string
}

func (c *stackConn) Write(b []byte) (int, error) {
	buf := make([]byte, 8<<10)
	st := string(buf[:runtime.Stack(buf, false)])
	c.mu.Lock()
	c.stacks = append(c.stacks, st)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// startHeldRESP serves a RESP frontend on a free port over core and returns
// a connected client and the frontend; the frontend is interrupted and shut
// down when the test ends.
func startHeldRESP(t *testing.T, core *heldCore, wrap func(net.Conn) net.Conn) (net.Conn, *RESP) {
	t.Helper()
	r := NewRESP(RESPOptions{WrapConn: wrap})
	if err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(core) }()
	nc, err := net.DialTimeout("tcp", r.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		nc.Close()
		if t.Failed() {
			return // a frame may still be held, and its reader would never exit
		}
		core.draining.Store(true)
		r.Interrupt()
		r.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	return nc, r
}

func nextFrame(t *testing.T, core *heldCore) *Frame {
	t.Helper()
	select {
	case f := <-core.submits:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame reached the core")
		return nil
	}
}

// expectNoFrame fails if a frame reaches the core within a short window.
func expectNoFrame(t *testing.T, core *heldCore, why string) {
	t.Helper()
	select {
	case f := <-core.submits:
		t.Fatalf("%s: frame %q reached the core", why, f.Queries)
	case <-time.After(50 * time.Millisecond):
	}
}

func readExactly(t *testing.T, nc net.Conn, want string) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	got := make([]byte, len(want))
	if _, err := io.ReadFull(nc, got); err != nil || string(got) != want {
		t.Fatalf("client read %q, %v; want %q", got, err, want)
	}
}

// TestRESPReaderWaitsForRelease pins a connection's reader to its frame's
// Release, not its delivery: until the core releases the frame the reader
// admits nothing more, the frame's queries (which alias the read buffer)
// stay intact, and the reply is not yet on the wire. Every reply write runs
// on the connection's writer goroutine.
func TestRESPReaderWaitsForRelease(t *testing.T) {
	core := &heldCore{submits: make(chan *Frame, 1)}
	var sc *stackConn
	nc, _ := startHeldRESP(t, core, func(c net.Conn) net.Conn {
		sc = &stackConn{Conn: c}
		return sc
	})
	if _, err := nc.Write([]byte("GET a\r\n")); err != nil {
		t.Fatal(err)
	}
	f := nextFrame(t, core)
	deliver(f, proto.StatusOK, []byte("1"))
	// More input arrives while the delivered frame is still held.
	if _, err := nc.Write([]byte("SET b 2\r\nGET c\r\n")); err != nil {
		t.Fatal(err)
	}
	expectNoFrame(t, core, "delivered but not released")
	if n := core.admits.Load(); n != 1 {
		t.Fatalf("%d admits before the first frame's release, want 1", n)
	}
	if len(f.Queries) != 1 || string(f.Queries[0].Key) != "a" {
		t.Fatalf("held frame's queries changed under the core: %q", f.Queries)
	}
	nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	if n, err := nc.Read(make([]byte, 16)); n > 0 || err == nil {
		t.Fatalf("reply sent before the frame's release (read %d bytes, %v)", n, err)
	}
	f.R.Release(f)
	readExactly(t, nc, "$1\r\n1\r\n")

	// The SET opens its own frame (a read↔write switch), then the GET.
	f = nextFrame(t, core)
	if len(f.Queries) != 1 || f.Queries[0].Op != proto.OpSet {
		t.Fatalf("second frame = %q, want the SET alone", f.Queries)
	}
	deliver(f, proto.StatusOK, nil)
	f.R.Release(f)
	f = nextFrame(t, core)
	deliver(f, proto.StatusNotFound, nil)
	f.R.Release(f)
	readExactly(t, nc, "+OK\r\n$-1\r\n")

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.stacks) == 0 {
		t.Fatal("no reply write seen")
	}
	for _, st := range sc.stacks {
		if !strings.Contains(st, "(*respConn).writeLoop") {
			t.Fatalf("reply written outside the connection's writer:\n%s", st)
		}
	}
}

// TestRESPNoAdmitWhileDraining: a reader that finds the core draining once
// its frame is released admits nothing more, though the client pipelined
// another frame; the released frame's reply still reaches the client before
// the connection closes.
func TestRESPNoAdmitWhileDraining(t *testing.T) {
	core := &heldCore{submits: make(chan *Frame, 1)}
	nc, _ := startHeldRESP(t, core, nil)
	if _, err := nc.Write([]byte("GET a\r\nSET b 1\r\n")); err != nil {
		t.Fatal(err)
	}
	f := nextFrame(t, core)
	core.draining.Store(true)
	deliver(f, proto.StatusOK, []byte("1"))
	f.R.Release(f)
	expectNoFrame(t, core, "draining")
	if n := core.admits.Load(); n != 1 {
		t.Fatalf("%d admits, want 1: a frame was admitted while draining", n)
	}
	readExactly(t, nc, "$1\r\n1\r\n")
	if rest, err := io.ReadAll(nc); err != nil || len(rest) > 0 {
		t.Fatalf("after the last reply: %q, %v; want EOF", rest, err)
	}
}

// TestRESPNonReaderDisconnected: a client that pipelines GETs and never reads
// a reply is disconnected once the replies waiting for its writer pass the
// cap, and the listener counts one send error; its reader admits nothing
// after that.
func TestRESPNonReaderDisconnected(t *testing.T) {
	defer func(old int) { maxPendingReplyBytes = old }(maxPendingReplyBytes)
	maxPendingReplyBytes = 256 << 10
	core := &heldCore{submits: make(chan *Frame, 1)}
	nc, r := startHeldRESP(t, core, func(c net.Conn) net.Conn {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(16 << 10) //nolint:errcheck
		}
		return c
	})
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(16 << 10) //nolint:errcheck
	}
	// 64 Ki GETs: 256 frames, each answered with 64 KiB of values, far more
	// than the socket buffers and the cap hold together.
	go nc.Write([]byte(strings.Repeat("GET k\r\n", 64<<10))) //nolint:errcheck
	value := make([]byte, 256)
	frames := 0
	for frames <= 256 {
		var f *Frame
		select {
		case f = <-core.submits:
		case <-time.After(time.Second):
		}
		if f == nil {
			break
		}
		frames++
		deliver(f, proto.StatusOK, value)
		f.R.Release(f)
	}
	t.Logf("%d frames reached the core", frames)
	if frames == 0 || frames > 200 {
		t.Fatalf("%d frames reached the core, want the reader to stop well before 256", frames)
	}
	if n := r.FrontendStats().SendErrs; n != 1 {
		t.Fatalf("SendErrs = %d, want 1", n)
	}
}
