package frontend

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/stats"
)

// RESP frontend: RESP2 over TCP, served Redis style. Each connection has one
// reader goroutine and one writer goroutine. The reader is the connection's
// dispatcher: it parses one frame from its buffered input — every complete
// command already buffered coalesces into it (the RESP analogue of the UDP
// protocol's client-side query batching), so a pipelining client feeds the
// LiveRunner real batches — admits and submits it, waits for the core to
// release it, hands the frame's reply to the writer, and only then parses
// the next.
//
// Unlike the UDP protocol, RESP promises redis's pipelining semantics:
// commands on one connection behave as if executed sequentially. The batch
// pipeline applies a batch's writes before its reads, so a frame never mixes
// the two — it seals at every read↔write switch (a "command run") and at
// defaultMaxCmdsPerFrame — and since a connection has at most one frame at
// the core, its frames execute, and its replies leave, in command order by
// construction. Different connections execute concurrently. Backpressure is
// TCP's: a connection's input is read only as fast as its frames execute,
// and nothing is shed per connection (-BUSY comes only from the core's
// admission). No reply write runs on the reader: a client that writes a deep
// pipeline before reading any reply keeps its frames executing while the
// writer waits on the client's receive window; one that stops reading is
// disconnected once its unwritten replies pass maxPendingReplyBytes.

const (
	// defaultMaxCmdsPerFrame caps how many pipelined commands coalesce into
	// one core frame.
	defaultMaxCmdsPerFrame = 256
	// defaultWriteTimeout bounds one reply flush; a connection that stalls
	// its receive window longer (slowloris) is torn down.
	defaultWriteTimeout = 5 * time.Second
	// shutdownWriteTimeout bounds each flush still running or started once
	// Shutdown began, so a stalled client cannot hold up process exit.
	shutdownWriteTimeout = time.Second
	respReadBufSize      = 64 << 10
	// maxIdleWriteBuf is the largest flush buffer a writer keeps for reuse;
	// one big reply (an MGET of large values) is not held for the
	// connection's lifetime.
	maxIdleWriteBuf = 1 << 20
)

// maxPendingReplyBytes caps the replies a connection's reader may hand its
// writer before they are written. A client that pipelines commands and
// reads its replies late is served in full while they stay under it; one
// that stops reading altogether is disconnected once its unwritten replies
// pass it, rather than growing the server's heap until the write timeout.
// Pausing the reader instead would deadlock a client that writes its whole
// pipeline before reading. A variable only so tests can lower it.
var maxPendingReplyBytes = 64 << 20

// RESPOptions configures the TCP/RESP2 frontend.
type RESPOptions struct {
	// MaxConns bounds concurrently open connections: connection-scale
	// admission, shedding beyond it. ≤ 0 means unlimited.
	MaxConns int
	// WrapConn wraps each accepted connection — the stream fault injector's
	// hook.
	WrapConn func(net.Conn) net.Conn
	// MeasureParse times RV/PP per frame for the adaptation profile.
	MeasureParse bool
	// StampStart records the admission time per frame (slow-query log).
	StampStart bool
}

// RESP is the TCP/RESP2 frontend, served from one listener.
type RESP struct {
	opts RESPOptions

	mu    sync.Mutex
	ln    net.Listener // set by Listen, closed (field kept) by Interrupt and Shutdown
	conns map[*respConn]struct{}

	started  atomic.Bool
	stopping atomic.Bool
	// shutdown, set by Shutdown, shortens every flush's write deadline to
	// shutdownWriteTimeout.
	shutdown atomic.Bool
	runDone  chan struct{}
	readers  sync.WaitGroup
	// writers counts connection writers; Shutdown waits for them. A writer
	// exits once its reader has exited and every handed-over reply is
	// written (or a write failed), so after Interrupt none waits on input.
	writers sync.WaitGroup

	// active is the open connection count. Only the accept loop raises it,
	// so checking it against MaxConns before raising it cannot overshoot.
	active    stats.Gauge
	accepted  stats.Counter
	shed      stats.Counter
	frames    stats.Counter
	malformed stats.Counter
	bytesIn   stats.Counter
	bytesOut  stats.Counter
	sendErrs  stats.Counter
}

// NewRESP returns an unbound RESP frontend.
func NewRESP(opts RESPOptions) *RESP {
	return &RESP{
		opts:    opts,
		conns:   make(map[*respConn]struct{}),
		runDone: make(chan struct{}),
	}
}

func (r *RESP) Name() string { return "resp" }

// Listen binds the accept socket.
func (r *RESP) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	return nil
}

// Addr returns the bound address, or nil before Listen.
func (r *RESP) Addr() net.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return nil
	}
	return r.ln.Addr()
}

// Run accepts connections until Interrupt or a hard accept error. Each
// accepted connection gets a reader and a writer goroutine; connections
// over the MaxConns budget are told why and closed.
func (r *RESP) Run(core Core) error {
	r.started.Store(true)
	defer close(r.runDone)
	for {
		nc, err := r.ln.Accept()
		if err != nil {
			if core.Draining() || r.stopping.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if max := int64(r.opts.MaxConns); max > 0 && r.active.Load() >= max {
			r.shed.Inc()
			nc.SetWriteDeadline(time.Now().Add(defaultWriteTimeout)) //nolint:errcheck
			nc.Write([]byte("-ERR max number of clients reached\r\n"))
			nc.Close()
			continue
		}
		r.accepted.Inc()
		r.active.Add(1)
		if r.opts.WrapConn != nil {
			nc = r.opts.WrapConn(nc)
		}
		c := r.newConn(nc)
		r.mu.Lock()
		r.conns[c] = struct{}{}
		r.mu.Unlock()
		if r.stopping.Load() {
			// Interrupt raced the accept: make sure this reader cannot block.
			nc.SetReadDeadline(time.Now()) //nolint:errcheck
		}
		r.readers.Add(1)
		r.writers.Add(1)
		go c.readLoop(core)
		go c.writeLoop()
	}
}

// Interrupt stops the accept loop and every connection reader, returning
// once no further frame can reach the core. A reader exits only after its
// frame's Release, with the reply handed to its writer, which flushes it
// before closing the connection.
func (r *RESP) Interrupt() {
	r.stopping.Store(true)
	r.ln.Close()
	if r.started.Load() {
		<-r.runDone
	}
	r.mu.Lock()
	for c := range r.conns {
		c.nc.SetReadDeadline(time.Now()) //nolint:errcheck
	}
	r.mu.Unlock()
	r.readers.Wait()
}

// Shutdown waits for every connection's writer to flush the replies its
// reader handed over and close the connection, cutting each write to at most
// shutdownWriteTimeout from here. It runs after Interrupt, so no reader is
// left to hand over more.
func (r *RESP) Shutdown() {
	r.ln.Close()
	r.shutdown.Store(true)
	deadline := time.Now().Add(shutdownWriteTimeout)
	r.mu.Lock()
	for c := range r.conns {
		// Under c.mu, so a write either set its deadline before this one
		// (and is cut short by it) or sees shutdown and sets the short one.
		c.mu.Lock()
		c.nc.SetWriteDeadline(deadline) //nolint:errcheck
		c.mu.Unlock()
	}
	r.mu.Unlock()
	r.writers.Wait()
}

// removeConn forgets a closed connection and returns its budget slot; the
// connection's writer calls it once, as it exits.
func (r *RESP) removeConn(c *respConn) {
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
	r.active.Add(-1)
}

// FrontendStats snapshots the frontend's counters.
func (r *RESP) FrontendStats() Stats {
	return Stats{
		Frames:        r.frames.Load(),
		Malformed:     r.malformed.Load(),
		BytesIn:       r.bytesIn.Load(),
		BytesOut:      r.bytesOut.Load(),
		ConnsAccepted: r.accepted.Load(),
		ConnsShed:     r.shed.Load(),
		ConnsActive:   int(r.active.Load()),
		SendErrs:      r.sendErrs.Load(),
	}
}

// --- delivery ---

// Release wakes the frame's reader, which hands the frame's reply (f.Units)
// to the connection's writer and reuses the frame for its next command run.
func (r *RESP) Release(f *Frame) {
	f.Ctx.(*respConn).released <- struct{}{}
}

// Encode renders resps as one contiguous RESP reply run for the frame's
// commands. Freshly allocated per the Responder contract, at its exact size.
func (r *RESP) Encode(f *Frame, resps []proto.Response) [][]byte {
	c := f.Ctx.(*respConn)
	buf := make([]byte, 0, respRepliesLen(c.cmds, resps))
	return [][]byte{appendRESPReplies(buf, c.cmds, resps)}
}

// DeliverBatch has nothing to send: each frame's reader hands f.Units to the
// connection's writer once the core releases the frame.
func (r *RESP) DeliverBatch(fs []*Frame) {}

// Busy answers every command in a shed frame with -BUSY.
func (r *RESP) Busy(f *Frame) {
	c := f.Ctx.(*respConn)
	f.Units = [][]byte{appendRESPBusy(nil, c.cmds)}
}

// Fail answers every command with -ERR <reason>: a stream frontend must emit
// one reply per command even when execution produced nothing, or the
// connection's reply stream would desynchronise from its command stream.
func (r *RESP) Fail(f *Frame, reason string) {
	c := f.Ctx.(*respConn)
	f.Units = [][]byte{appendRESPFail(nil, c.cmds, reason)}
}

// --- connections ---

// respConn is one client connection: the reader's input buffer and the one
// frame the connection has at the core at a time, plus the reply bytes the
// reader hands to the writer.
type respConn struct {
	fe *RESP
	nc net.Conn

	// Reader-owned. The frame's queries and commands alias rb, which the
	// reader neither reads into nor moves until the core releases the frame.
	rb       []byte
	pos      int
	fill     int
	f        Frame
	cmds     []respCmd
	queries  []proto.Query
	args     [][]byte      // parser scratch
	released chan struct{} // Release's signal to the waiting reader

	mu         sync.Mutex
	wake       sync.Cond // on mu: out grew or the reader exited
	out        []byte    // replies handed to the writer, not yet written
	readerDone bool
	// closed: the writer exited, or the reader gave up on a client that
	// does not read; later replies are dropped.
	closed bool
}

func (r *RESP) newConn(nc net.Conn) *respConn {
	c := &respConn{
		fe:       r,
		nc:       nc,
		rb:       make([]byte, respReadBufSize),
		released: make(chan struct{}, 1),
	}
	c.f.R = r
	c.f.Ctx = c
	c.wake.L = &c.mu
	return c
}

// readLoop reads and dispatches frames until EOF, error, a close-marked
// command, or drain, then lets the writer finish.
func (c *respConn) readLoop(core Core) {
	fe := c.fe
	defer func() {
		c.mu.Lock()
		c.readerDone = true
		c.mu.Unlock()
		c.wake.Signal()
		fe.readers.Done()
	}()
	for {
		if core.Draining() {
			return
		}
		c.ensureSpace()
		if c.fill == len(c.rb) {
			// Defensive: ensureSpace caps the buffer above any single command
			// the parser accepts, so a full buffer holding one incomplete
			// command means the parser failed to bound it. Close rather than
			// spin on zero-length reads.
			fe.malformed.Inc()
			core.Malformed()
			return
		}
		n, err := c.nc.Read(c.rb[c.fill:])
		if n > 0 {
			c.fill += n
			fe.bytesIn.Add(uint64(n))
			if !c.consume(core) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// ensureSpace guarantees room for the next read: reset when drained, compact
// or grow when the tail of a partial command fills the buffer. No frame
// holds the buffer here — the reader reads only between frames — so it may
// move freely.
func (c *respConn) ensureSpace() {
	if c.pos == c.fill {
		c.pos, c.fill = 0, 0
		return
	}
	if c.fill < len(c.rb) {
		return
	}
	tail := c.fill - c.pos
	if max := maxRESPCommandBytes + respReadBufSize; tail > len(c.rb)/2 && len(c.rb) < max {
		rb := make([]byte, min(2*len(c.rb), max))
		copy(rb, c.rb[c.pos:c.fill])
		c.rb = rb
	} else {
		copy(c.rb, c.rb[c.pos:c.fill])
	}
	c.pos, c.fill = 0, tail
}

// respCmdClass partitions commands into read and write runs for frame
// sealing: the batch pipeline applies a batch's writes before its reads, so
// sequential (redis) semantics hold only for frames of a single class.
func respCmdClass(name []byte) int {
	switch {
	case upperEq(name, "GET"), upperEq(name, "MGET"), upperEq(name, "SCAN"):
		return 1
	case upperEq(name, "SET"), upperEq(name, "DEL"):
		return 2
	}
	return 0 // classless: PING/ECHO/QUIT/COMMAND ride in any frame
}

// consume runs every complete command already buffered, one frame at a time.
// It returns false when the reader must stop: after a close-marked frame
// (QUIT, protocol error), or once the core is draining — checked before each
// Admit, so no frame reaches the core after Interrupt returns.
func (c *respConn) consume(core Core) bool {
	for {
		last := c.parseFrame(core)
		if len(c.cmds) == 0 {
			return true
		}
		if core.Draining() {
			return false
		}
		if !c.dispatch(core) || last {
			return false
		}
	}
}

// parseFrame fills the connection's frame with the next command run in the
// buffer. The run ends before a command that would make it longer than
// defaultMaxCmdsPerFrame or switch between reads and writes (that command
// opens the next frame), when no complete command is left, or at a QUIT or
// protocol error — then parseFrame reports that the frame is the
// connection's last.
func (c *respConn) parseFrame(core Core) (last bool) {
	fe := c.fe
	var parseStart time.Time
	if fe.opts.MeasureParse {
		parseStart = time.Now()
	}
	frameClass := 0
	for !last {
		args, n, err := parseRESPCommand(c.rb[c.pos:c.fill], c.args[:0])
		c.args = args[:0]
		if err != nil {
			if errors.Is(err, errRESPIncomplete) {
				break
			}
			// Protocol violation: reply in-band, then close. Nothing after
			// this point in the stream can be framed reliably.
			fe.malformed.Inc()
			core.Malformed()
			c.pos = c.fill
			c.cmds = append(c.cmds, respCmd{kind: rcErr, errMsg: "ERR " + err.Error()})
			last = true
			break
		}
		if len(args) == 0 {
			c.pos += n
			continue // empty inline line
		}
		cl := respCmdClass(args[0])
		if len(c.cmds) >= defaultMaxCmdsPerFrame || cl != 0 && frameClass != 0 && cl != frameClass {
			break
		}
		c.pos += n
		if frameClass == 0 {
			frameClass = cl
		}
		cmd, qs := buildRESPCommand(args, c.queries)
		c.queries = qs
		c.cmds = append(c.cmds, cmd)
		last = cmd.kind == rcQuit || cmd.kind == rcErr
	}
	if fe.opts.MeasureParse && len(c.cmds) > 0 {
		c.f.ParseNanos = time.Since(parseStart).Nanoseconds()
	}
	return last
}

// dispatch runs the parsed frame on the core and waits for its Release — not
// just its delivery: the core reads the frame's queries until then — then
// hands the reply its delivery set (f.Units) to the writer. It reports false
// when the replies still waiting for the writer are past maxPendingReplyBytes:
// then it has closed the connection and counted a send error, and the reader
// must stop.
func (c *respConn) dispatch(core Core) bool {
	f := &c.f
	f.Queries = c.queries
	if c.fe.opts.StampStart {
		f.Start = time.Now()
	}
	c.fe.frames.Inc()
	if core.Admit(f) {
		core.Submit(f)
	}
	<-c.released
	over := false
	c.mu.Lock()
	switch {
	case c.closed:
	case len(c.out) > maxPendingReplyBytes:
		// Earlier frames' replies are still unwritten past the cap: the
		// client is not reading. This frame's reply is dropped with them.
		c.closed, c.out, over = true, nil, true
	default:
		for _, u := range f.Units {
			c.out = append(c.out, u...)
		}
	}
	c.mu.Unlock()
	c.wake.Signal()
	f.reset()
	c.cmds = c.cmds[:0]
	c.queries = c.queries[:0]
	if over {
		c.fe.sendErrs.Inc()
		// Closing the socket also fails the writer's blocked Write.
		c.nc.Close()
	}
	return !over
}

// writeLoop is the connection's one writer: it writes whatever replies the
// reader has handed over, one socket write per wake-up, until the reader has
// exited and everything is written or a write fails (a stalled or gone
// client). Then it closes the connection.
func (c *respConn) writeLoop() {
	fe := c.fe
	var buf []byte
	c.mu.Lock()
	for {
		for len(c.out) == 0 && !c.readerDone {
			c.wake.Wait()
		}
		if len(c.out) == 0 {
			break
		}
		buf, c.out = c.out, buf[:0]
		timeout := defaultWriteTimeout
		if fe.shutdown.Load() {
			timeout = shutdownWriteTimeout
		}
		c.nc.SetWriteDeadline(time.Now().Add(timeout)) //nolint:errcheck
		c.mu.Unlock()

		n, err := c.nc.Write(buf)
		fe.bytesOut.Add(uint64(n))
		if cap(buf) > maxIdleWriteBuf {
			buf = nil
		}

		c.mu.Lock()
		if err != nil {
			if !c.closed { // else the reader closed it and counted it
				fe.sendErrs.Inc()
			}
			break
		}
	}
	c.closed = true
	c.out = nil
	c.mu.Unlock()
	// Closing the socket also ends a reader still blocked in Read.
	c.nc.Close()
	fe.removeConn(c)
	fe.writers.Done()
}
