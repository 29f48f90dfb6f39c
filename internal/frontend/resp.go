package frontend

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/udpbatch"
)

// RESP frontend: RESP2 over TCP. Reads are readiness-driven — one kernel read
// drains whatever the client pipelined, and every complete command already
// buffered coalesces into a core frame (the RESP analogue of the UDP
// protocol's client-side query batching), so a pipelining client feeds the
// LiveRunner real batches instead of single-query frames.
//
// Unlike the UDP protocol, RESP promises redis's pipelining semantics:
// commands on one connection behave as if executed sequentially. The batch
// pipeline applies a batch's writes before its reads, so a frame never mixes
// the two — coalescing seals a frame at every read↔write boundary (a "command
// run") — and a connection's frames are dispatched to the core one at a time,
// in order. Parsing still runs ahead of execution (up to MaxConnInFlight
// frames queue per connection, beyond which the frontend sheds with -BUSY),
// and different connections execute concurrently. Replies are staged per
// connection in command order and flushed with one write per completed frame
// or batch.

const (
	// defaultMaxConnInFlight is RESPOptions.MaxConnInFlight's zero value.
	defaultMaxConnInFlight = 16
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
)

// RESPOptions configures the TCP/RESP2 frontend.
type RESPOptions struct {
	// Gate is the shared connection-scale admission (nil = unlimited). One
	// gate can serve several stream frontends.
	Gate *Gate
	// MaxConnInFlight caps frames in flight per connection (one executing,
	// the rest parsed ahead and queued); beyond it the frontend sheds with
	// -BUSY without consuming core admission tokens. 0 = default (16),
	// negative = unlimited.
	MaxConnInFlight int
	// WrapConn wraps each accepted connection — the stream fault injector's
	// hook.
	WrapConn func(net.Conn) net.Conn
	// MeasureParse times RV/PP per frame for the adaptation profile.
	MeasureParse bool
	// StampStart records the admission time per frame (slow-query log).
	StampStart bool
	// Listeners is how many SO_REUSEPORT accept sockets to open on the one
	// address: the kernel shards connection readiness across them, and each
	// runs its own accept loop feeding the shared Gate, so a busy accept
	// queue on one listener does not serialize the others. ≤ 1 — and any
	// value on a platform without SO_REUSEPORT — keeps one listener.
	Listeners int
}

// RESP is the TCP/RESP2 frontend, served from one or more REUSEPORT
// listeners bound to one address.
type RESP struct {
	opts            RESPOptions
	maxConnInFlight int

	mu    sync.Mutex
	lns   []*respListener // set by Listen, sockets closed (slice kept) by Shutdown
	conns map[*respConn]struct{}

	started  atomic.Bool
	stopping atomic.Bool
	// shutdown, set by Shutdown, shortens every flush's write deadline to
	// shutdownWriteTimeout.
	shutdown atomic.Bool
	runDone  chan struct{}
	readers  sync.WaitGroup
	// flushes counts reply flushes running on their own goroutines; Shutdown
	// waits for them before it closes any socket. Every flush starts from a
	// delivery that precedes its frame's release, so all have started by the
	// time the core has drained and calls Shutdown.
	flushes sync.WaitGroup

	frames sync.Pool // *respFrame
	rbufs  sync.Pool // *rbuf of respReadBufSize

	malformed stats.Counter // shared: the reject path is rare enough not to shard
	active    stats.Gauge   // shared: the Gate already owns the scale decision
}

// respListener is one accept queue: a REUSEPORT listener plus the counters
// for the connections the kernel hashed to it.
type respListener struct {
	ln net.Listener

	accepted stats.Counter
	shed     stats.Counter
	frames   stats.Counter
	bytesIn  stats.Counter
	bytesOut stats.Counter
	sendErrs stats.Counter
}

// NewRESP returns an unbound RESP frontend.
func NewRESP(opts RESPOptions) *RESP {
	r := &RESP{
		opts:            opts,
		maxConnInFlight: opts.MaxConnInFlight,
		conns:           make(map[*respConn]struct{}),
		runDone:         make(chan struct{}),
	}
	if r.maxConnInFlight == 0 {
		r.maxConnInFlight = defaultMaxConnInFlight
	}
	r.frames.New = func() any {
		rf := &respFrame{fe: r}
		rf.f.R = r
		rf.f.Ctx = rf
		return rf
	}
	r.rbufs.New = func() any { return &rbuf{b: make([]byte, respReadBufSize)} }
	return r
}

func (r *RESP) Name() string { return "resp" }

// Listen binds the accept socket(s).
func (r *RESP) Listen(addr string) error {
	lns, err := udpbatch.ListenTCPQueues(addr, r.opts.Listeners)
	if err != nil {
		return err
	}
	qs := make([]*respListener, len(lns))
	for i, ln := range lns {
		qs[i] = &respListener{ln: ln}
	}
	r.mu.Lock()
	r.lns = qs
	r.mu.Unlock()
	return nil
}

// Addr returns the bound address, or nil before Listen.
func (r *RESP) Addr() net.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.lns) == 0 {
		return nil
	}
	return r.lns[0].ln.Addr()
}

// listeners returns the listener slice (immutable once Listen set it).
func (r *RESP) listeners() []*respListener {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lns
}

// Run accepts connections on every listener until Interrupt — listener 0 on
// the calling goroutine, keeping the blocking contract. Each accepted
// connection gets a reader goroutine; over-budget connections are told why
// and closed. All listeners share the one Gate, so the connection budget
// stays global. A hard accept error on one listener closes the others so
// Run can report it.
func (r *RESP) Run(core Core) error {
	qs := r.listeners()
	r.started.Store(true)
	defer close(r.runDone)
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := 1; i < len(qs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.acceptLoop(core, qs[i])
		}(i)
	}
	errs[0] = r.acceptLoop(core, qs[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// acceptLoop is one listener's accept loop.
func (r *RESP) acceptLoop(core Core, q *respListener) error {
	for {
		nc, err := q.ln.Accept()
		if err != nil {
			if core.Draining() || r.stopping.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			// Hard accept error: stop the sibling loops so Run returns it.
			r.stopping.Store(true)
			r.closeListeners()
			return err
		}
		if g := r.opts.Gate; g != nil && !g.Acquire() {
			q.shed.Inc()
			nc.SetWriteDeadline(time.Now().Add(defaultWriteTimeout)) //nolint:errcheck
			nc.Write([]byte("-ERR max number of clients reached\r\n"))
			nc.Close()
			continue
		}
		q.accepted.Inc()
		r.active.Add(1)
		if r.opts.WrapConn != nil {
			nc = r.opts.WrapConn(nc)
		}
		c := &respConn{fe: r, q: q, nc: nc, core: core, rb: r.getRbuf(respReadBufSize), closeSeq: ^uint64(0)}
		r.mu.Lock()
		r.conns[c] = struct{}{}
		r.mu.Unlock()
		if r.stopping.Load() {
			// Interrupt raced the accept: make sure this reader cannot block.
			nc.SetReadDeadline(time.Now()) //nolint:errcheck
		}
		r.readers.Add(1)
		go c.readLoop(core)
	}
}

// closeListeners closes every accept socket (idempotent: double Close on a
// net.Listener just returns an error).
func (r *RESP) closeListeners() {
	for _, q := range r.listeners() {
		q.ln.Close()
	}
}

// Interrupt stops the accept loops and every connection reader, returning
// once no further frame can reach the core. Connections stay open so
// in-flight replies still flush.
func (r *RESP) Interrupt() {
	r.stopping.Store(true)
	r.closeListeners()
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

// Shutdown waits for every reply flush still running, giving each at most
// shutdownWriteTimeout from here, then tears down every remaining
// connection. The listener slice survives so stats remain readable.
func (r *RESP) Shutdown() {
	r.closeListeners()
	r.shutdown.Store(true)
	r.mu.Lock()
	conns := make([]*respConn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	deadline := time.Now().Add(shutdownWriteTimeout)
	for _, c := range conns {
		// Under c.mu, so a flush either set its deadline before this one
		// (and is cut short by it) or sees shutdown and sets the short one.
		c.mu.Lock()
		c.nc.SetWriteDeadline(deadline) //nolint:errcheck
		c.mu.Unlock()
	}
	r.flushes.Wait()
	for _, c := range conns {
		c.teardown()
	}
}

func (r *RESP) removeConn(c *respConn) {
	r.mu.Lock()
	_, ok := r.conns[c]
	delete(r.conns, c)
	r.mu.Unlock()
	if ok {
		r.active.Add(-1)
		if g := r.opts.Gate; g != nil {
			g.Release()
		}
	}
}

// FrontendStats snapshots the frontend's counters, summed over its
// listeners.
func (r *RESP) FrontendStats() Stats {
	st := Stats{
		Malformed:   r.malformed.Load(),
		ConnsActive: int(r.active.Load()),
	}
	for _, q := range r.listeners() {
		st.Frames += q.frames.Load()
		st.BytesIn += q.bytesIn.Load()
		st.BytesOut += q.bytesOut.Load()
		st.ConnsAccepted += q.accepted.Load()
		st.ConnsShed += q.shed.Load()
		st.SendErrs += q.sendErrs.Load()
	}
	return st
}

// QueueStats snapshots each accept queue's counters.
func (r *RESP) QueueStats() []QueueStats {
	qs := r.listeners()
	out := make([]QueueStats, len(qs))
	for i, q := range qs {
		out[i] = QueueStats{
			Frames:   q.frames.Load(),
			BytesIn:  q.bytesIn.Load(),
			BytesOut: q.bytesOut.Load(),
			SendErrs: q.sendErrs.Load(),
			Conns:    q.accepted.Load(),
		}
	}
	return out
}

// --- read buffers ---

// rbuf is a refcounted read buffer: the connection reader holds one
// reference, and every submitted frame whose queries alias it holds another,
// so the buffer outlives out-of-order pipeline completion without copying
// keys and values on the hot path.
type rbuf struct {
	b    []byte
	refs atomic.Int32
}

func (r *RESP) getRbuf(size int) *rbuf {
	var rb *rbuf
	if size == respReadBufSize {
		rb = r.rbufs.Get().(*rbuf)
	} else {
		rb = &rbuf{b: make([]byte, size)}
	}
	rb.refs.Store(1)
	return rb
}

func (rb *rbuf) retain() { rb.refs.Add(1) }

func (r *RESP) putRbuf(rb *rbuf) {
	if rb.refs.Add(-1) == 0 && len(rb.b) == respReadBufSize {
		r.rbufs.Put(rb)
	}
}

// --- frames ---

// respFrame is the RESP-private context of one frame: the commands it holds,
// the buffer its args alias, and its position in the connection's reply order.
type respFrame struct {
	f          Frame
	fe         *RESP
	c          *respConn
	rb         *rbuf
	seq        uint64
	closeAfter bool
	cmds       []respCmd
	queries    []proto.Query
	args       [][]byte // parser scratch
}

// Release returns the frame and drops its read-buffer reference.
func (r *RESP) Release(f *Frame) {
	rf := f.Ctx.(*respFrame)
	if rf.rb != nil {
		r.putRbuf(rf.rb)
		rf.rb = nil
	}
	rf.c = nil
	rf.seq = 0
	rf.closeAfter = false
	rf.cmds = rf.cmds[:0]
	rf.queries = rf.queries[:0]
	f.reset()
	r.frames.Put(rf)
}

// Encode renders resps as one contiguous RESP reply run for the frame's
// commands. Freshly allocated per the Responder contract.
func (r *RESP) Encode(f *Frame, resps []proto.Response) [][]byte {
	rf := f.Ctx.(*respFrame)
	return [][]byte{appendRESPReplies(nil, rf.cmds, resps)}
}

// Deliver stages the frame's reply in connection order, dispatches the
// connection's next queued frame, and flushes on its own goroutine.
func (r *RESP) Deliver(f *Frame, units [][]byte) {
	rf := f.Ctx.(*respFrame)
	c := rf.c
	r.stage(rf, flattenUnits(units))
	r.dispatchNext(c)
	r.flushAsync(c)
}

// DeliverBatch stages every frame, then dispatches each touched connection's
// next frame and flushes it on its own goroutine.
func (r *RESP) DeliverBatch(fs []*Frame) {
	var touched []*respConn
	for _, f := range fs {
		rf := f.Ctx.(*respFrame)
		r.stage(rf, flattenUnits(f.Units))
		seen := false
		for _, c := range touched {
			if c == rf.c {
				seen = true
				break
			}
		}
		if !seen {
			touched = append(touched, rf.c)
		}
	}
	for _, c := range touched {
		r.dispatchNext(c)
		r.flushAsync(c)
	}
}

// Busy answers every command in a shed frame with -BUSY.
func (r *RESP) Busy(f *Frame) {
	rf := f.Ctx.(*respFrame)
	c := rf.c
	r.stage(rf, appendRESPBusy(nil, rf.cmds))
	r.dispatchNext(c)
	r.flushAsync(c)
}

// Fail answers every command with -ERR <reason>: a stream frontend must emit
// one reply per command even when execution produced nothing, or the
// connection's reply stream would desynchronise from its command stream.
func (r *RESP) Fail(f *Frame, reason string) {
	rf := f.Ctx.(*respFrame)
	c := rf.c
	r.stage(rf, appendRESPFail(nil, rf.cmds, reason))
	r.dispatchNext(c)
	r.flushAsync(c)
}

// flushAsync runs c's flush on its own goroutine, counted in r.flushes: the
// caller — a pipeline batch-done callback or a connection reader — must not
// block behind one stalled (slowloris) client's socket, and per-connection
// write serialization (flushConn's writing flag) bounds the goroutines to one
// blocked writer per connection.
func (r *RESP) flushAsync(c *respConn) {
	r.flushes.Add(1)
	go func() {
		defer r.flushes.Done()
		r.flushConn(c)
	}()
}

// dispatchNext hands the connection's next queued frame to the core once no
// frame is running, preserving per-connection execution order. The loop is
// reentrancy-guarded: a synchronous shed inside Admit (which calls Busy →
// dispatchNext on this same goroutine) returns immediately and the outer loop
// moves on to the following frame, so a run of sheds cannot recurse.
func (r *RESP) dispatchNext(c *respConn) {
	c.mu.Lock()
	if c.dispatching {
		c.mu.Unlock()
		return
	}
	c.dispatching = true
	for {
		if c.running != nil || c.tornDown || len(c.pending) == 0 {
			break
		}
		rf := c.pending[0]
		c.pending = c.pending[1:]
		c.running = rf
		c.mu.Unlock()
		if c.core.Admit(&rf.f) {
			c.core.Submit(&rf.f)
		}
		// On shed, Admit already answered (-BUSY) and released the frame,
		// clearing c.running via stage; loop to try the next one.
		c.mu.Lock()
	}
	c.dispatching = false
	c.mu.Unlock()
}

func flattenUnits(units [][]byte) []byte {
	if len(units) == 1 {
		return units[0]
	}
	var out []byte
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

// stage slots one frame's rendered reply into the connection's in-order write
// buffer: consecutive-from-wnext replies append directly, out-of-order ones
// are held until their predecessors complete.
func (r *RESP) stage(rf *respFrame, payload []byte) {
	c := rf.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if c.running == rf {
		// Terminal delivery of the dispatched frame: its store effects are
		// complete, so the next queued frame may execute.
		c.running = nil
	}
	if c.tornDown {
		return
	}
	if rf.closeAfter && rf.seq < c.closeSeq {
		c.closeSeq = rf.seq
	}
	if rf.seq != c.wnext {
		if c.held == nil {
			c.held = make(map[uint64][]byte)
		}
		c.held[rf.seq] = payload
		return
	}
	c.wbuf = append(c.wbuf, payload...)
	c.wnext++
	for {
		p, ok := c.held[c.wnext]
		if !ok {
			break
		}
		delete(c.held, c.wnext)
		c.wbuf = append(c.wbuf, p...)
		c.wnext++
	}
}

// flushConn writes the connection's staged replies, tearing the connection
// down on write error/stall or once its close-marked reply has flushed.
//
// The socket write runs outside c.mu: the caller swaps the staged buffer out
// under the lock, marks itself the active writer (c.writing) and writes
// unlocked, so concurrent stage() calls — other frames completing for this
// connection — never block behind a stalled (slowloris) client for up to
// defaultWriteTimeout. At most one writer is active per connection; a flush
// that finds one already active returns immediately and the active writer's
// loop picks up whatever was staged meanwhile.
func (r *RESP) flushConn(c *respConn) {
	c.mu.Lock()
	for {
		if c.tornDown {
			c.mu.Unlock()
			return
		}
		if c.writing || len(c.wbuf) == 0 {
			// Nothing for this caller to write: either the active writer will
			// drain what we staged (and re-check close conditions after), or
			// the buffer is empty and only the close check remains.
			closeNow := !c.writing &&
				((c.closeSeq != ^uint64(0) && c.wnext > c.closeSeq) ||
					(c.readerDone && c.inflight == 0))
			c.mu.Unlock()
			if closeNow {
				c.teardown()
			}
			return
		}
		buf := c.wbuf
		c.wbuf = nil
		c.writing = true
		timeout := defaultWriteTimeout
		if r.shutdown.Load() {
			timeout = shutdownWriteTimeout
		}
		c.nc.SetWriteDeadline(time.Now().Add(timeout)) //nolint:errcheck
		c.mu.Unlock()

		n, err := c.nc.Write(buf)
		c.q.bytesOut.Add(uint64(n))

		c.mu.Lock()
		c.writing = false
		if err != nil {
			c.mu.Unlock()
			c.q.sendErrs.Inc()
			c.teardown()
			return
		}
		if !c.tornDown && len(c.wbuf) == 0 {
			c.wbuf = buf[:0] // recycle the detached buffer's capacity
		}
		// Loop: drain anything staged during the write, then settle close.
	}
}

// --- connections ---

// respConn is one client connection: reader-owned parse state plus the
// mu-guarded reply-ordering state shared with deliveries.
type respConn struct {
	fe *RESP
	q  *respListener // the accept queue that produced this connection
	nc net.Conn

	// Reader-only.
	rb      *rbuf
	pos     int
	fill    int
	nextSeq uint64

	core Core

	mu          sync.Mutex
	wnext       uint64            // next seq to write
	held        map[uint64][]byte // completed out-of-order replies
	wbuf        []byte            // staged, unflushed reply bytes
	inflight    int               // frames queued or submitted, not yet staged
	pending     []*respFrame      // parsed frames awaiting their dispatch turn
	running     *respFrame        // the frame currently at the core, if any
	dispatching bool              // a dispatchNext loop is active on this conn
	writing     bool              // a flushConn writer holds the socket
	closeSeq    uint64            // seq whose flush closes the conn (^0 = none)
	readerDone  bool
	tornDown    bool
}

// teardown closes the connection and releases its gate slot, exactly once.
// Queued frames that never reached the core are released here.
func (c *respConn) teardown() {
	c.mu.Lock()
	if c.tornDown {
		c.mu.Unlock()
		return
	}
	c.tornDown = true
	c.held = nil
	c.wbuf = nil
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, rf := range pending {
		c.fe.Release(&rf.f)
	}
	c.nc.Close()
	c.fe.removeConn(c)
}

// readLoop reads, parses, coalesces and submits frames until EOF, error, a
// close-marked command, or drain.
func (c *respConn) readLoop(core Core) {
	fe := c.fe
	defer func() {
		fe.putRbuf(c.rb)
		c.mu.Lock()
		c.readerDone = true
		// An active writer owns the conn's last reply; its flush loop settles
		// the readerDone close itself (flushConn) — don't yank the socket.
		idle := c.inflight == 0 && len(c.wbuf) == 0 && !c.writing
		c.mu.Unlock()
		if idle {
			c.teardown()
		}
		fe.readers.Done()
	}()
	for {
		if core.Draining() {
			return
		}
		c.ensureSpace()
		if c.fill == len(c.rb.b) {
			// Defensive: ensureSpace caps the buffer above any single command
			// the parser accepts, so a full buffer holding one incomplete
			// command means the parser failed to bound it. Close rather than
			// spin on zero-length reads.
			fe.malformed.Inc()
			core.Malformed()
			return
		}
		n, err := c.nc.Read(c.rb.b[c.fill:])
		if n > 0 {
			c.fill += n
			c.q.bytesIn.Add(uint64(n))
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
// or reallocate when the tail of a partial command fills the buffer. The
// buffer is only moved or replaced when no in-flight frame references it
// (refs==1) or by copying the tail into a fresh buffer — submitted frames'
// query slices stay valid either way.
func (c *respConn) ensureSpace() {
	if c.pos == c.fill {
		if c.rb.refs.Load() == 1 {
			c.pos, c.fill = 0, 0
			return
		}
		// Frames still alias this buffer: swap to a fresh one.
		c.fe.putRbuf(c.rb)
		c.rb = c.fe.getRbuf(respReadBufSize)
		c.pos, c.fill = 0, 0
		return
	}
	if c.fill < len(c.rb.b) {
		return
	}
	tail := c.fill - c.pos
	size := len(c.rb.b)
	if tail > size/2 {
		size *= 2
		if max := maxRESPCommandBytes + respReadBufSize; size > max {
			size = max
		}
	}
	if c.pos > 0 && size == len(c.rb.b) && c.rb.refs.Load() == 1 {
		copy(c.rb.b, c.rb.b[c.pos:c.fill])
		c.pos, c.fill = 0, tail
		return
	}
	old := c.rb
	c.rb = c.fe.getRbuf(size)
	copy(c.rb.b, old.b[c.pos:c.fill])
	c.fe.putRbuf(old)
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

// consume turns every complete command already buffered into frames and
// submits them. A frame is one command run: it seals at
// defaultMaxCmdsPerFrame and at every read↔write boundary. Returns false when
// the reader must stop (QUIT, protocol error).
func (c *respConn) consume(core Core) bool {
	fe := c.fe
	rf := fe.frames.Get().(*respFrame)
	var parseStart time.Time
	if fe.opts.MeasureParse {
		parseStart = time.Now()
	}
	frameClass := 0
	stop := false
	seal := func() {
		if fe.opts.MeasureParse {
			rf.f.ParseNanos = time.Since(parseStart).Nanoseconds()
			parseStart = time.Now()
		}
		c.submitFrame(rf)
		rf = fe.frames.Get().(*respFrame)
		frameClass = 0
	}
	for !stop {
		args, n, err := parseRESPCommand(c.rb.b[c.pos:c.fill], rf.args[:0])
		rf.args = args[:0]
		if err != nil {
			if errors.Is(err, errRESPIncomplete) {
				break
			}
			// Protocol violation: reply in-band, then close. Nothing after
			// this point in the stream can be framed reliably.
			fe.malformed.Inc()
			core.Malformed()
			c.pos = c.fill
			rf.cmds = append(rf.cmds, respCmd{kind: rcErr,
				errMsg: "ERR " + err.Error()})
			rf.closeAfter = true
			stop = true
			break
		}
		c.pos += n
		if len(args) == 0 {
			continue // empty inline line
		}
		cl := respCmdClass(args[0])
		if len(rf.cmds) > 0 &&
			(len(rf.cmds) >= defaultMaxCmdsPerFrame ||
				(cl != 0 && frameClass != 0 && cl != frameClass)) {
			seal()
		}
		if cl != 0 && frameClass == 0 {
			frameClass = cl
		}
		cmd, qs := buildRESPCommand(args, rf.queries)
		rf.queries = qs
		rf.cmds = append(rf.cmds, cmd)
		if cmd.kind == rcQuit || cmd.kind == rcErr {
			rf.closeAfter = true
			stop = true
		}
	}
	if len(rf.cmds) == 0 {
		fe.frames.Put(rf)
	} else {
		if fe.opts.MeasureParse {
			rf.f.ParseNanos = time.Since(parseStart).Nanoseconds()
		}
		c.submitFrame(rf)
	}
	return !stop
}

// submitFrame queues one coalesced frame for in-order dispatch, shedding with
// -BUSY when the connection is over its in-flight cap (without consuming core
// admission tokens).
func (c *respConn) submitFrame(rf *respFrame) {
	fe := c.fe
	rf.c = c
	rf.rb = c.rb
	c.rb.retain()
	rf.seq = c.nextSeq
	c.nextSeq++
	f := &rf.f
	f.Queries = rf.queries
	if fe.opts.StampStart {
		f.Start = time.Now()
	}
	c.q.frames.Inc()

	c.mu.Lock()
	over := fe.maxConnInFlight > 0 && c.inflight >= fe.maxConnInFlight
	c.inflight++
	if !over {
		c.pending = append(c.pending, rf)
	}
	c.mu.Unlock()
	if over {
		fe.Busy(f)
		fe.Release(f)
		return
	}
	fe.dispatchNext(c)
}
