package dido

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/stats"
)

// ServerOptions tunes the fault-tolerance behavior of a Server. The zero
// value gives production defaults.
type ServerOptions struct {
	// MaxInFlight bounds how many frames are processed concurrently. When
	// the budget is exhausted, new frames are shed immediately with
	// StatusBusy responses instead of queuing unboundedly, keeping the
	// latency of admitted frames bounded under overload. It is the only
	// point where the server refuses a frame. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// MaxConns bounds concurrently open RESP connections: connection-scale
	// admission, the stream analogue of MaxInFlight. 0 means
	// DefaultMaxConns; negative disables the limit.
	MaxConns int
	// ReplyCacheSize bounds how many recent request replies are retained
	// (per client address + request ID) to answer retried frames without
	// re-executing them. 0 means DefaultReplyCacheSize; negative disables
	// the cache.
	ReplyCacheSize int
	// WrapConn, when set, wraps the UDP listening socket before serving. This
	// is the hook the fault injector (internal/faults) uses.
	WrapConn func(net.PacketConn) net.PacketConn
	// WrapStreamConn, when set, wraps each accepted RESP connection — the
	// stream-side fault injector hook (stalls, corruption, torn reads).
	WrapStreamConn func(net.Conn) net.Conn
	// Pipeline tunes the batched task-granular pipeline every admitted frame
	// executes on (see server_pipeline.go). Nil means default PipelineOptions.
	Pipeline *PipelineOptions
	// SlowLog, when non-nil, records frames whose admission→response latency
	// exceeds its threshold. The below-threshold cost is one clock read and an
	// atomic compare per frame (see internal/obs).
	SlowLog *obs.SlowLog
	// Durability, when non-nil with a Dir, attaches the durability tier:
	// startup recovery from snapshot + WAL, write-ahead logging of every
	// acknowledged write (the pipeline's LG task), and periodic snapshots that
	// truncate the log (see server_durability.go). Opening it can fail (disk
	// errors, corrupt snapshot) — use NewServerDurable to observe the error.
	Durability *DurabilityOptions
}

// Defaults for ServerOptions zero fields.
const (
	DefaultMaxInFlight    = 256
	DefaultMaxConns       = 1024
	DefaultReplyCacheSize = 4096
)

// Server is the protocol-independent core of the key-value server: admission
// (frame tokens; the RESP frontend bounds connections), at-most-once dedupe
// through the reply cache, durability commit-before-ack, and execution on
// the batched task-granular pipeline. Transports are frontends
// (internal/frontend): the batched UDP binary protocol (Serve) and TCP/RESP2
// (ServeRESP) feed this one core. Server implements frontend.Core; see the
// frontend package for the delivery contract.
//
// Every admitted frame that carries queries executes on the pipeline, whose
// configuration travels with each batch. Ordering contract: inside a batch,
// writes run before reads, so a GET observes every SET or DELETE batched
// with it — including ones later in its own frame. RESP keeps Redis order by
// sealing a new frame at every switch between reads and writes, and by each
// connection's reader waiting for the Release of its frame before it reads
// the next: a connection has one frame at the core at a time, its replies
// leave in order, its backpressure is TCP's, and it is never shed with -BUSY
// except by the admission below.
//
// The serving path is hardened for lossy networks and overload: admission is
// bounded (excess load is shed with StatusBusy), request IDs deduplicate
// retried frames through a reply cache, a poisoned frame cannot kill a serve
// loop (the pipeline contains panics per frame), and Close drains in-flight
// frames before sockets are torn down.
type Server struct {
	opts ServerOptions

	mu     sync.Mutex
	fes    []frontend.Frontend // registered, running frontends
	udpFE  *frontend.UDP       // set by Serve
	respFE *frontend.RESP      // set by ServeRESP
	closed atomic.Bool

	pipe *serverPipeline
	dur  *durability // non-nil when opts.Durability is set

	tokens  chan struct{}
	wg      sync.WaitGroup
	replies *replyCache

	served     stats.Counter
	frames     stats.Counter
	shed       stats.Counter
	replayed   stats.Counter
	dupDropped stats.Counter
	malformed  stats.Counter
	panics     stats.Counter
}

// NewServer returns a server over st with default options.
func NewServer(st *Store) *Server {
	return NewServerOpts(st, ServerOptions{})
}

// NewServerOpts returns a server over st with the given options. When
// opts.Durability is set, opening the tier can fail; this constructor panics
// on that error — use NewServerDurable to handle it.
func NewServerOpts(st *Store, opts ServerOptions) *Server {
	s, err := NewServerDurable(st, opts)
	if err != nil {
		panic("dido: " + err.Error() + " (use NewServerDurable)")
	}
	return s
}

// NewServerDurable returns a server over st, running startup recovery and
// opening the write-ahead log when opts.Durability is set. It is the
// error-returning form of NewServerOpts for durable servers: recovery reads
// disk state and can fail.
func NewServerDurable(st *Store, opts ServerOptions) (*Server, error) {
	return newServer(st, storeLive{st.inner}, opts)
}

// newServer builds a server whose pipeline executes against ls, a batched
// view of st; the exported constructors pass st's own (storeLive), and tests
// pass it with one method overridden to inject a fault. Recovery, snapshots
// and the adaptation profile read st directly.
func newServer(st *Store, ls pipeline.LiveStore, opts ServerOptions) (*Server, error) {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.MaxConns == 0 {
		opts.MaxConns = DefaultMaxConns
	}
	cacheSize := opts.ReplyCacheSize
	if cacheSize == 0 {
		cacheSize = DefaultReplyCacheSize
	}
	s := &Server{
		opts:   opts,
		tokens: make(chan struct{}, opts.MaxInFlight),
	}
	if cacheSize > 0 {
		s.replies = newReplyCache(cacheSize)
	}
	// Durability opens before the pipeline: recovery must finish before any
	// frame can execute, and initPipeline arms its LG hook only when s.dur
	// is already set.
	if opts.Durability != nil && opts.Durability.Dir != "" {
		dur, err := openDurability(st, s.replies, *opts.Durability)
		if err != nil {
			return nil, err
		}
		s.dur = dur
	}
	po := opts.Pipeline
	if po == nil {
		po = &PipelineOptions{}
	}
	s.initPipeline(po, st, ls)
	return s, nil
}

// register publishes a listening frontend so Close can reach it, unless the
// server already closed (then the frontend is torn back down and false is
// returned — the caller should not Run it).
func (s *Server) register(fe frontend.Frontend) bool {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		fe.Shutdown()
		return false
	}
	s.fes = append(s.fes, fe)
	s.mu.Unlock()
	return true
}

// Serve listens on addr (e.g. "127.0.0.1:11211") for the batched UDP binary
// protocol and processes frames until Close. It blocks; run it in a
// goroutine. Serve returns once Close has stopped frame production.
func (s *Server) Serve(addr string) error {
	fe := frontend.NewUDP(frontend.UDPOptions{
		WrapConn:     s.opts.WrapConn,
		Dedupe:       s.replies != nil,
		MeasureParse: s.pipe.measureParse,
		StampStart:   s.opts.SlowLog != nil,
	})
	if err := fe.Listen(addr); err != nil {
		return err
	}
	s.mu.Lock()
	s.udpFE = fe
	s.mu.Unlock()
	if !s.register(fe) {
		return nil
	}
	return fe.Run(s)
}

// ServeRESP listens on addr (e.g. "127.0.0.1:6379") for RESP2 over TCP and
// serves it through the same core — same admission, durability and pipeline
// as the UDP frontend. It blocks; run it in a goroutine (concurrently
// with Serve when both protocols are wanted).
func (s *Server) ServeRESP(addr string) error {
	fe := frontend.NewRESP(frontend.RESPOptions{
		MaxConns:     s.opts.MaxConns,
		WrapConn:     s.opts.WrapStreamConn,
		MeasureParse: s.pipe.measureParse,
		StampStart:   s.opts.SlowLog != nil,
	})
	if err := fe.Listen(addr); err != nil {
		return err
	}
	s.mu.Lock()
	s.respFE = fe
	s.mu.Unlock()
	if !s.register(fe) {
		return nil
	}
	return fe.Run(s)
}

// --- frontend.Core ---

// Admit runs pre-parse admission: reply-cache dedupe, then the token gate.
// A retried frame whose reply was already computed is answered from the
// cache without re-executing it or consuming a token; this is what makes
// client retries of SET safe (at-most-once execution). A retry that lands
// while the original frame is still executing is dropped — admitting it
// would re-execute the SET before the reply cache is populated, reopening
// the at-most-once hole. The client simply retries again and is then
// answered from the cache. Every path fills the cache BEFORE it sends the
// reply, so a client that has its answer can never have a retry dropped as
// still executing.
func (s *Server) Admit(f *frontend.Frame) bool {
	if f.AKey != "" && f.ReqID != 0 && s.replies != nil {
		frames, state := s.replies.begin(f.AKey, f.ReqID)
		switch state {
		case replyCached:
			s.replayed.Inc() // before the send, like the fill: a client holding the replay sees it counted
			f.Units = frames
			f.R.DeliverBatch([]*frontend.Frame{f})
			f.R.Release(f)
			return false
		case replyInFlight:
			s.dupDropped.Inc()
			f.R.Release(f)
			return false
		case replyAdmitted:
			f.Tracked = true
		}
	}
	select {
	case s.tokens <- struct{}{}:
	default:
		// Overload: shed the whole frame now rather than queuing it. Busy
		// replies are never cached: a later retry should be re-admitted.
		if f.Tracked {
			s.replies.abort(f.AKey, f.ReqID)
			f.Tracked = false
		}
		s.shed.Inc()
		f.R.Busy(f)
		f.R.Release(f)
		return false
	}
	s.wg.Add(1)
	return true
}

// Submit executes an admitted, parsed frame on the pipeline.
func (s *Server) Submit(f *frontend.Frame) {
	s.frames.Inc()
	if len(f.Queries) == 0 {
		// Nothing to execute or log (RESP PING/COMMAND runs, empty UDP
		// frames): answer inline instead of riding a pipeline batch.
		s.finishDirect(f)
		return
	}
	s.submitPipelined(f)
}

// Cancel aborts an admitted frame whose payload failed to parse.
func (s *Server) Cancel(f *frontend.Frame) {
	s.malformed.Inc()
	if f.Tracked {
		s.replies.abort(f.AKey, f.ReqID)
		f.Tracked = false
	}
	<-s.tokens
	s.wg.Done()
	f.R.Release(f)
}

// Malformed counts a frame dropped by a frontend before admission.
func (s *Server) Malformed() { s.malformed.Inc() }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool { return s.closed.Load() }

// finishDirect answers a query-less admitted frame without touching the
// pipeline: encode (the frame may still carry protocol-level replies,
// e.g. RESP PING), settle dedupe state, deliver, release.
func (s *Server) finishDirect(f *frontend.Frame) {
	f.Units = f.R.Encode(f, nil)
	s.cacheReply(f, f.Units)
	f.R.DeliverBatch([]*frontend.Frame{f})
	<-s.tokens
	s.wg.Done()
	f.R.Release(f)
}

// cacheReply records a tracked frame's computed reply and clears its
// in-flight marker. Every completion path calls it BEFORE sending: the client
// may retry the instant it has the reply, and that retry must find the cache
// filled (and be replayed), not the marker (and be dropped for a full client
// timeout). Whether the send then succeeds does not matter — a lost reply is
// exactly what the replay exists for.
func (s *Server) cacheReply(f *frontend.Frame, units [][]byte) {
	if f.Tracked {
		s.replies.finish(f.AKey, f.ReqID, units)
		f.Tracked = false
	}
}

// Addr returns the UDP frontend's bound address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	fe := s.udpFE
	s.mu.Unlock()
	if fe == nil {
		return nil
	}
	return fe.Addr()
}

// RESPAddr returns the RESP frontend's bound address, or nil before
// ServeRESP.
func (s *Server) RESPAddr() net.Addr {
	s.mu.Lock()
	fe := s.respFE
	s.mu.Unlock()
	if fe == nil {
		return nil
	}
	return fe.Addr()
}

// Served returns the number of queries processed.
func (s *Server) Served() uint64 { return s.served.Load() }

// ServerStats is a snapshot of the server's serving counters. Each field is
// individually monotonic (atomically read), but the struct is not a
// consistent cut: counters keep advancing while the snapshot is assembled,
// so cross-field arithmetic (e.g. Served/Frames) is approximate under load.
type ServerStats struct {
	// Served counts queries executed; Frames counts frames executed.
	Served, Frames uint64
	// Shed counts frames rejected with StatusBusy under overload.
	Shed uint64
	// Replayed counts retried frames answered from the reply cache.
	Replayed uint64
	// DupDropped counts duplicate frames dropped while the original request
	// was still executing (at-most-once in-flight tracking).
	DupDropped uint64
	// Malformed counts dropped undecodable or corrupted frames.
	Malformed uint64
	// Panics counts frames whose processing panicked (and was contained).
	Panics uint64
	// ConnsShed counts RESP connections rejected over the MaxConns budget.
	ConnsShed uint64
	// InFlight is the number of frames currently being processed.
	InFlight int
}

// Stats returns current serving counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Served:     s.served.Load(),
		Frames:     s.frames.Load(),
		Shed:       s.shed.Load(),
		Replayed:   s.replayed.Load(),
		DupDropped: s.dupDropped.Load(),
		Malformed:  s.malformed.Load(),
		Panics:     s.panics.Load(),
		ConnsShed:  s.respConnsShed(),
		InFlight:   len(s.tokens),
	}
}

// respConnsShed reads the RESP frontend's shed-connection count, 0 before
// ServeRESP.
func (s *Server) respConnsShed() uint64 {
	s.mu.Lock()
	fe := s.respFE
	s.mu.Unlock()
	if fe == nil {
		return 0
	}
	return fe.FrontendStats().ConnsShed
}

// Close stops the server: it interrupts every frontend (no further frame can
// be admitted), drains in-flight frames so they still get their responses,
// then tears transports down. Close is idempotent.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	fes := make([]frontend.Frontend, len(s.fes))
	copy(fes, s.fes)
	s.mu.Unlock()
	// Interrupt blocks until the frontend's read loops exited, so after this
	// loop nothing can race wg.Add against the Wait below.
	for _, fe := range fes {
		fe.Interrupt()
	}
	s.wg.Wait()
	// The pipeline runner shuts down after the drain: wg.Wait needs the
	// runner still executing. Its Close is idempotent — it also runs when
	// Serve was never called.
	s.pipe.runner.Close()
	for _, fe := range fes {
		fe.Shutdown()
	}
	if s.dur != nil {
		return s.dur.close()
	}
	return nil
}

// replyKey identifies a request across retries: the client's address plus
// the frame's request ID.
type replyKey struct {
	addr string
	id   uint64
}

// replyCache retains the encoded response frames of recent requests so a
// retried (duplicate) frame is answered without re-execution, and tracks
// which requests are currently executing so a retry cannot race the original
// into a second execution. Eviction is FIFO over distinct requests.
type replyCache struct {
	mu       sync.Mutex
	max      int
	m        map[replyKey][][]byte
	fifo     []replyKey
	inflight map[replyKey]struct{}
}

// begin outcomes.
const (
	replyAdmitted = iota // no reply yet and not executing: caller may execute
	replyCached          // reply available: answer from the returned frames
	replyInFlight        // original still executing: drop the duplicate
)

func newReplyCache(max int) *replyCache {
	return &replyCache{
		max:      max,
		m:        make(map[replyKey][][]byte, max),
		inflight: make(map[replyKey]struct{}),
	}
}

// begin classifies an arriving (addr, id) frame. On replyAdmitted the pair is
// marked in-flight; the caller must hand it to finish or abort eventually.
func (rc *replyCache) begin(addr string, id uint64) ([][]byte, int) {
	k := replyKey{addr, id}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if frames, ok := rc.m[k]; ok {
		return frames, replyCached
	}
	if _, ok := rc.inflight[k]; ok {
		return nil, replyInFlight
	}
	rc.inflight[k] = struct{}{}
	return nil, replyAdmitted
}

// finish records the computed reply and clears the in-flight marker in one
// step, so no retry can slip between execution and cache fill.
func (rc *replyCache) finish(addr string, id uint64, frames [][]byte) {
	k := replyKey{addr, id}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	delete(rc.inflight, k)
	rc.put(k, frames)
}

// put records frames under k, evicting the oldest replies beyond max. A key
// already cached (a reply recomputed after its eviction, or recovered twice)
// keeps its FIFO position. Callers hold rc.mu.
func (rc *replyCache) put(k replyKey, frames [][]byte) {
	if _, ok := rc.m[k]; ok {
		rc.m[k] = frames
		return
	}
	rc.m[k] = frames
	rc.fifo = append(rc.fifo, k)
	for len(rc.fifo) > rc.max {
		delete(rc.m, rc.fifo[0])
		rc.fifo = rc.fifo[1:]
	}
}

// abort clears the in-flight marker without recording a reply (shed frame,
// malformed payload, failed send, contained panic). Idempotent.
func (rc *replyCache) abort(addr string, id uint64) {
	k := replyKey{addr, id}
	rc.mu.Lock()
	delete(rc.inflight, k)
	rc.mu.Unlock()
}

// ClientConn is the conn surface the Client drives; *net.UDPConn implements
// it, and the fault injector's wrapper does too.
type ClientConn interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// ClientOptions tunes the client's fault-tolerance behavior. The zero value
// gives production defaults.
type ClientOptions struct {
	// Timeout is the per-attempt deadline for assembling a complete
	// response set. 0 means DefaultClientTimeout.
	Timeout time.Duration
	// Retries is how many times Do resends an unanswered frame before
	// giving up with ErrTimeout (or ErrBusy). 0 means
	// DefaultClientRetries; negative disables retries.
	Retries int
	// Backoff is the initial delay before the first resend; it doubles per
	// retry (±50% jitter) up to MaxBackoff. Zero values mean the defaults.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed makes the request-ID sequence and backoff jitter deterministic
	// for tests; 0 derives a seed from the clock.
	Seed int64
	// WrapConn, when set, wraps the dialed socket — the client-side hook
	// for the fault injector.
	WrapConn func(*net.UDPConn) ClientConn
}

// Defaults for ClientOptions zero fields.
const (
	DefaultClientTimeout    = 500 * time.Millisecond
	DefaultClientRetries    = 7
	DefaultClientBackoff    = 10 * time.Millisecond
	DefaultClientMaxBackoff = 320 * time.Millisecond
)

// Client is a UDP client for a Server. It batches queries per call: Do sends
// one frame and reassembles the response frames, retrying with exponential
// backoff when datagrams are lost. Client is not safe for concurrent use;
// create one per goroutine.
type Client struct {
	conn ClientConn
	opts ClientOptions
	buf  []byte
	out  []byte

	scratch []proto.Response
	nextID  uint64
	rng     *rand.Rand

	retries  stats.Counter
	timeouts stats.Counter
	busy     stats.Counter
}

// Dial connects to a server at addr with default options.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, ClientOptions{})
}

// DialOpts connects to a server at addr with the given options.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultClientTimeout
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultClientRetries
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultClientBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultClientMaxBackoff
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	var cc ClientConn = conn
	if opts.WrapConn != nil {
		cc = opts.WrapConn(conn)
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Client{
		conn:   cc,
		opts:   opts,
		buf:    make([]byte, proto.MaxFrameBytes),
		rng:    rng,
		nextID: rng.Uint64() | 1, // request IDs are never 0
	}
	return c, nil
}

// Typed client errors. Do never returns partial results: on any error the
// returned responses are nil.
var (
	// ErrTimeout reports that no complete response set arrived within the
	// configured timeout and retries.
	ErrTimeout = errors.New("dido: request timed out after retries")
	// ErrBusy reports that the server shed the request under overload for
	// every attempt.
	ErrBusy = errors.New("dido: server busy")
)

// ClientStats is a snapshot of the client's resilience counters. Like
// ServerStats, each field is individually monotonic but the struct is not a
// consistent cut across fields.
type ClientStats struct {
	// Retries counts frame resends (timeout- or busy-triggered).
	Retries uint64
	// Timeouts counts Do calls that failed with ErrTimeout.
	Timeouts uint64
	// BusyRounds counts attempts that were shed by the server.
	BusyRounds uint64
}

// Stats returns current client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:    c.retries.Load(),
		Timeouts:   c.timeouts.Load(),
		BusyRounds: c.busy.Load(),
	}
}

// Do sends queries as one frame and returns the per-query responses, in
// query order. The server may split large response sets across several
// datagrams and the network may drop, duplicate or reorder them; Do
// reassembles by offset and resends the frame (same request ID) with
// exponential backoff until every response arrived or the retry budget is
// exhausted. Resends are idempotency-safe: the server deduplicates by
// request ID, so a SET is re-executed only if it was never acknowledged.
//
// On error the returned responses are always nil — there are no partial
// results, and returned values never alias the receive buffer. Value slices
// in successful responses are copies and remain valid after the next Do.
func (c *Client) Do(queries []proto.Query) ([]proto.Response, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	id := c.nextID
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	c.out = proto.EncodeFrameV2(c.out[:0], id, queries)

	resps := make([]proto.Response, len(queries))
	got := make([]bool, len(queries))
	need := len(queries)
	sawBusy := false
	backoff := c.opts.Backoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			jitter := time.Duration(c.rng.Int63n(int64(backoff))) - backoff/2
			time.Sleep(backoff + jitter)
			if backoff *= 2; backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
		}
		if _, err := c.conn.Write(c.out); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(c.opts.Timeout)
		sawBusy = false
		for need > 0 {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			n, err := c.conn.Read(c.buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					break // attempt over; maybe retry
				}
				return nil, err
			}
			rs, rid, off, perr := proto.ParseResponseFrameID(c.buf[:n], c.scratch[:0])
			c.scratch = rs[:0]
			if perr != nil || rid != id {
				continue // corrupted or stale frame: ignore it
			}
			if len(rs) > 0 && rs[0].Status == proto.StatusBusy {
				// The server shed this attempt; no more frames are coming.
				sawBusy = true
				break
			}
			for i := range rs {
				idx := off + i
				if idx < 0 || idx >= len(queries) || got[idx] {
					continue // duplicate or nonsense offset
				}
				r := rs[i]
				// Copy the value out of the receive buffer before reuse.
				if len(r.Value) > 0 {
					r.Value = append([]byte(nil), r.Value...)
				}
				resps[idx] = r
				got[idx] = true
				need--
			}
		}
		if need == 0 {
			return resps, nil
		}
		if sawBusy {
			c.busy.Inc()
		}
		if attempt >= c.opts.Retries {
			if sawBusy {
				return nil, ErrBusy
			}
			c.timeouts.Inc()
			return nil, ErrTimeout
		}
	}
}

// Get fetches one key.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	resps, err := c.Do([]proto.Query{{Op: proto.OpGet, Key: key}})
	if err != nil {
		return nil, false, err
	}
	if resps[0].Status != proto.StatusOK {
		return nil, false, nil
	}
	return resps[0].Value, true, nil
}

// Set stores one key-value pair.
func (c *Client) Set(key, value []byte) error {
	resps, err := c.Do([]proto.Query{{Op: proto.OpSet, Key: key, Value: value}})
	if err != nil {
		return err
	}
	if resps[0].Status != proto.StatusOK {
		return errors.New("dido: server rejected SET")
	}
	return nil
}

// Delete removes one key, reporting whether it existed.
func (c *Client) Delete(key []byte) (bool, error) {
	resps, err := c.Do([]proto.Query{{Op: proto.OpDelete, Key: key}})
	if err != nil {
		return false, err
	}
	return resps[0].Status == proto.StatusOK, nil
}

// Scan fetches up to limit entries with key in [start, end) in ascending key
// order (limit <= 0 means the server default; the server clamps oversized
// limits and truncates oversized result blocks — paginate by re-issuing with
// start = last key + one zero byte). It fails when the server's store has no
// ordered index.
func (c *Client) Scan(start, end []byte, limit int) ([]ScanEntry, error) {
	resps, err := c.Do([]proto.Query{proto.ScanQuery(start, end, limit)})
	if err != nil {
		return nil, err
	}
	if resps[0].Status != proto.StatusOK {
		return nil, errors.New("dido: server rejected SCAN")
	}
	return proto.ParseScanResult(resps[0].Value)
}

// Close releases the client's socket.
func (c *Client) Close() error { return c.conn.Close() }

// Query re-exports the wire query type for clients building batches.
type Query = proto.Query

// Response re-exports the wire response type.
type Response = proto.Response

// ScanEntry re-exports one decoded SCAN result entry.
type ScanEntry = proto.ScanEntry

// Op and Status re-export the wire enums alongside their constants below.
type (
	Op     = proto.Op
	Status = proto.Status
)

// Re-exported query ops and statuses.
const (
	OpGet          = proto.OpGet
	OpSet          = proto.OpSet
	OpDelete       = proto.OpDelete
	OpScan         = proto.OpScan
	StatusOK       = proto.StatusOK
	StatusNotFound = proto.StatusNotFound
	StatusError    = proto.StatusError
	StatusBusy     = proto.StatusBusy
)
