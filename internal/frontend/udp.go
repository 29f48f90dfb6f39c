package frontend

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/udpbatch"
)

// UDPOptions configures the binary-protocol UDP frontend.
type UDPOptions struct {
	// WrapConn wraps each listening socket before serving — the fault
	// injector's hook. With multiple queues it runs once per queue socket.
	WrapConn func(net.PacketConn) net.PacketConn
	// Dedupe computes the frame's reply-cache address key (frames with a
	// nonzero request ID); set when the core has a reply cache.
	Dedupe bool
	// MeasureParse times RV/PP per frame for the adaptation profile.
	MeasureParse bool
	// StampStart records the admission time per frame (slow-query log).
	StampStart bool
	// Queues is how many SO_REUSEPORT sockets to shard ingestion across:
	// each queue gets its own socket, reader goroutine (RV+PP), batched
	// sender and address cache, so neither the receive loop, the reply
	// sends nor the addr-key memoization serialize across queues. The
	// kernel hashes client 4-tuples over the sockets, so same-source
	// retries stay on one queue while distinct clients spread. ≤ 1 — and
	// any value on a platform without SO_REUSEPORT — keeps the
	// single-socket layout.
	Queues int
}

// UDP is the batched binary protocol over one or more UDP sockets bound to
// one address: one datagram per request frame, one or more per response.
// With Queues > 1 the kernel (SO_REUSEPORT) shards incoming flows across
// per-queue sockets, each drained by its own reader — the RV/PP tier
// partitioned the way the paper partitions every other pipeline task.
type UDP struct {
	opts UDPOptions

	mu     sync.Mutex
	queues []*udpQueue // set by Listen, sockets closed (slice kept) by Shutdown

	started atomic.Bool
	failed  atomic.Bool // a reader hit a hard socket error; peers drain out
	runDone chan struct{}

	bufs   sync.Pool // []byte of proto.MaxFrameBytes
	frames sync.Pool // *udpFrame

	malformed stats.Counter // shared: the reject path is rare enough not to shard
}

// udpQueue is one ingestion queue: a REUSEPORT socket, the state its single
// reader owns, and its own batched sender so replies leave through the
// socket their request arrived on without crossing a shared lock.
type udpQueue struct {
	pc     net.PacketConn
	sender *udpbatch.Sender
	// addrs is touched only by this queue's reader goroutine (keyFor runs
	// on the datagram path, before Admit), so it needs no lock.
	addrs addrCache

	nframes  stats.Counter
	bytesIn  stats.Counter
	bytesOut stats.Counter
	sendErrs stats.Counter
}

// udpFrame is the UDP-private context of one frame: the receive buffer the
// queries alias, the peer address, the arrival queue (replies go back out
// through it), and the query count a busy reply is sized by.
type udpFrame struct {
	f       Frame
	buf     []byte
	raddr   net.Addr
	q       *udpQueue
	count   int
	queries []proto.Query
}

// NewUDP returns an unbound UDP frontend.
func NewUDP(opts UDPOptions) *UDP {
	u := &UDP{opts: opts, runDone: make(chan struct{})}
	u.bufs.New = func() any { return make([]byte, proto.MaxFrameBytes) }
	u.frames.New = func() any {
		uf := &udpFrame{}
		uf.f.R = u
		uf.f.Ctx = uf
		return uf
	}
	return u
}

func (u *UDP) Name() string { return "udp" }

// Listen binds the queue sockets (each wrapped when configured). Addr is
// valid after. The effective queue count is fixed here: the kernel keeps
// hashing datagrams to every REUSEPORT socket whether or not anyone reads
// it, so queues cannot be parked later without stranding their flows.
func (u *UDP) Listen(addr string) error {
	conns, err := udpbatch.ListenUDPQueues(addr, u.opts.Queues)
	if err != nil {
		return err
	}
	qs := make([]*udpQueue, len(conns))
	for i, c := range conns {
		var pc net.PacketConn = c
		if u.opts.WrapConn != nil {
			pc = u.opts.WrapConn(pc)
		}
		qs[i] = &udpQueue{pc: pc, sender: udpbatch.NewSender(pc)}
	}
	u.mu.Lock()
	u.queues = qs
	u.mu.Unlock()
	return nil
}

// Addr returns the bound address, or nil before Listen.
func (u *UDP) Addr() net.Addr {
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.queues) == 0 {
		return nil
	}
	return u.queues[0].pc.LocalAddr()
}

// snapshot returns the queue slice (immutable once Listen set it).
func (u *UDP) snapshot() []*udpQueue {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.queues
}

// Run starts one reader per queue — queue 0 on the calling goroutine,
// keeping the blocking contract — and returns once all of them exited. Each
// reader exits nil once core.Draining and its socket read unblocks
// (Interrupt sets read deadlines); the sockets stay up so draining frames
// still answer, until Shutdown. A hard socket error on one queue flags the
// others out of their loops so Run can report it.
func (u *UDP) Run(core Core) error {
	qs := u.snapshot()
	u.started.Store(true)
	defer close(u.runDone)
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := 1; i < len(qs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = u.runQueue(core, qs[i])
		}(i)
	}
	errs[0] = u.runQueue(core, qs[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runQueue is one queue's read/admit/dispatch loop. It drains bursts of
// datagrams per kernel crossing (recvmmsg where available, mirroring the
// batched response sends) before running per-datagram admission.
func (u *UDP) runQueue(core Core, q *udpQueue) error {
	err := u.readQueue(core, q)
	if err != nil {
		u.failed.Store(true)
		u.kick() // unblock sibling readers so Run can return the error
	}
	return err
}

func (u *UDP) readQueue(core Core, q *udpQueue) error {
	rcv := udpbatch.NewReceiver(q.pc)
	const burst = 16
	bufs := make([][]byte, burst)
	addrs := make([]net.Addr, burst)
	sizes := make([]int, burst)
	for {
		for i := range bufs {
			if bufs[i] == nil {
				bufs[i] = u.bufs.Get().([]byte)
			}
		}
		got, err := rcv.Recv(bufs, addrs, sizes)
		if err != nil {
			if done, serr := u.readErr(core, err); done {
				for _, buf := range bufs {
					if buf != nil {
						u.bufs.Put(buf) //nolint:staticcheck // fixed-size buffer
					}
				}
				return serr
			}
			continue
		}
		for i := 0; i < got; i++ {
			buf := bufs[i]
			bufs[i] = nil // ownership moves to the frame
			u.handleDatagram(core, q, buf, sizes[i], addrs[i])
		}
	}
}

// readErr classifies a receive error: exit cleanly when draining (or when a
// sibling reader already failed the frontend), ride out transient timeouts,
// fail on anything else.
func (u *UDP) readErr(core Core, err error) (done bool, _ error) {
	if core.Draining() || u.failed.Load() {
		return true, nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false, nil
	}
	return true, err
}

// handleDatagram runs one datagram through header check, core admission,
// parse, and submission. It takes ownership of buf. Only q's reader
// goroutine calls it for a given q.
func (u *UDP) handleDatagram(core Core, q *udpQueue, buf []byte, n int, raddr net.Addr) {
	q.bytesIn.Add(uint64(n))
	count, reqID, herr := proto.FrameHeader(buf[:n])
	if herr != nil {
		// Malformed or corrupted frame: drop, as a UDP service must.
		u.malformed.Inc()
		core.Malformed()
		u.bufs.Put(buf) //nolint:staticcheck // fixed-size buffer
		return
	}
	uf := u.frames.Get().(*udpFrame)
	uf.buf, uf.raddr, uf.q, uf.count = buf, raddr, q, count
	f := &uf.f
	f.ReqID = reqID
	if u.opts.Dedupe && reqID != 0 {
		// Address keys are plain strings, equal across queues for one peer,
		// so the reply cache dedupes retries even when the kernel hashes a
		// retry (new source port after a client reconnect) to another queue.
		f.AKey = q.addrs.keyFor(raddr)
	}
	if u.opts.StampStart {
		f.Start = time.Now()
	}
	if !core.Admit(f) {
		return // replayed, duplicate-dropped or shed: core answered and released
	}
	var parseStart time.Time
	if u.opts.MeasureParse {
		parseStart = time.Now()
	}
	queries, _, perr := proto.ParseFrameID(buf[:n], uf.queries[:0])
	if u.opts.MeasureParse {
		f.ParseNanos = time.Since(parseStart).Nanoseconds()
	}
	if perr != nil {
		u.malformed.Inc()
		core.Cancel(f)
		return
	}
	uf.queries = queries
	f.Queries = queries
	q.nframes.Inc()
	core.Submit(f)
}

// kick unblocks every queue's read with an expired deadline.
func (u *UDP) kick() {
	for _, q := range u.snapshot() {
		q.pc.SetReadDeadline(time.Now()) //nolint:errcheck
	}
}

// Interrupt unblocks all read loops via read deadlines and waits for them to
// exit, so no further frame can reach the core.
func (u *UDP) Interrupt() {
	u.kick()
	if u.started.Load() {
		<-u.runDone
	}
}

// Shutdown closes the queue sockets. Called after the core drained so every
// in-flight frame got its response first. The queue slice survives so stats
// remain readable.
func (u *UDP) Shutdown() {
	for _, q := range u.snapshot() {
		q.pc.Close()
	}
}

// maxResponsePayload keeps each response frame within a safe UDP datagram.
const maxResponsePayload = 60 << 10

// AppendResponseFrames encodes resps split across as many datagrams as needed
// (the client reassembles by offset), appending each encoded frame to dst.
// The returned frames are freshly allocated: the reply cache retains them
// across retries.
func AppendResponseFrames(dst [][]byte, reqID uint64, resps []proto.Response) [][]byte {
	start := 0
	for {
		end := start
		bytes := 0
		for end < len(resps) {
			rlen := 5 + len(resps[end].Value)
			if end > start && bytes+rlen > maxResponsePayload {
				break
			}
			bytes += rlen
			end++
		}
		// Exact capacity: grown from nil, a 5 KB frame costs ten reallocations.
		buf := make([]byte, 0, proto.ResponseHeaderLenV2+bytes)
		dst = append(dst, proto.EncodeResponseFrameV2(buf, reqID, start, resps[start:end]))
		start = end
		if start >= len(resps) {
			return dst
		}
	}
}

// Encode renders resps as response datagrams.
func (u *UDP) Encode(f *Frame, resps []proto.Response) [][]byte {
	return AppendResponseFrames(nil, f.ReqID, resps)
}

// DeliverBatch transmits one completed batch's datagrams in as few batched
// sends as the frames' arrival queues allow (Linux sendmmsg — the WR/SD
// counterpart of batching queries into frames). Each reply leaves through
// its own queue's sender: per-queue sendmmsg, no cross-queue lock. Frames
// from one queue keep their order; datagrams the kernel refuses count as
// the queue's send errors.
func (u *UDP) DeliverBatch(fs []*Frame) {
	rem := fs
	for len(rem) > 0 {
		q := rem[0].Ctx.(*udpFrame).q
		msgs := make([]udpbatch.Message, 0, len(rem))
		total := 0
		rest := rem[:0]
		for _, f := range rem {
			uf := f.Ctx.(*udpFrame)
			if uf.q != q {
				rest = append(rest, f)
				continue
			}
			for _, out := range f.Units {
				msgs = append(msgs, udpbatch.Message{Buf: out, Addr: uf.raddr})
				total += len(out)
			}
		}
		if len(msgs) > 0 {
			q.sendErrs.Add(uint64(q.sender.Send(msgs)))
			q.bytesOut.Add(uint64(total))
		}
		rem = rest
	}
}

// Busy answers a shed frame with one StatusBusy response per query so the
// client learns about the overload immediately instead of timing out.
func (u *UDP) Busy(f *Frame) {
	uf := f.Ctx.(*udpFrame)
	resps := make([]proto.Response, uf.count)
	for i := range resps {
		resps[i].Status = proto.StatusBusy
	}
	f.Units = u.Encode(f, resps)
	u.DeliverBatch([]*Frame{f})
}

// Fail sends nothing: a datagram client times out and retries, and the
// cleared in-flight marker re-admits the retry.
func (u *UDP) Fail(f *Frame, reason string) {}

// Release returns the frame's receive buffer and pooled state.
func (u *UDP) Release(f *Frame) {
	uf := f.Ctx.(*udpFrame)
	u.bufs.Put(uf.buf) //nolint:staticcheck // fixed-size buffer
	uf.buf = nil
	uf.raddr = nil
	uf.q = nil
	uf.count = 0
	if len(uf.queries) > 0 {
		uf.queries = uf.queries[:0]
	}
	f.reset()
	u.frames.Put(uf)
}

// FrontendStats snapshots the frontend's counters, summed over its queues.
func (u *UDP) FrontendStats() Stats {
	st := Stats{Malformed: u.malformed.Load()}
	for _, q := range u.snapshot() {
		st.Frames += q.nframes.Load()
		st.BytesIn += q.bytesIn.Load()
		st.BytesOut += q.bytesOut.Load()
		st.SendErrs += q.sendErrs.Load()
	}
	return st
}

// QueueStats snapshots each ingestion queue's counters.
func (u *UDP) QueueStats() []QueueStats {
	qs := u.snapshot()
	out := make([]QueueStats, len(qs))
	for i, q := range qs {
		out[i] = QueueStats{
			Frames:   q.nframes.Load(),
			BytesIn:  q.bytesIn.Load(),
			BytesOut: q.bytesOut.Load(),
			SendErrs: q.sendErrs.Load(),
		}
	}
	return out
}

// addrCache memoizes net.Addr → string conversions so the reply-cache path
// does not allocate a fresh address string per datagram. UDP addresses are
// keyed by their comparable netip.AddrPort form; other address types fall
// back to String(). Each ingestion queue owns one, touched only by that
// queue's single reader goroutine, so it is unlocked — the per-queue split
// exists exactly so this memoization stops serializing readers.
type addrCache struct {
	m map[netip.AddrPort]string
}

// addrCacheMax bounds the memoized address set; beyond it the map is reset
// (a full rebuild is cheaper than tracking recency for a niche overflow).
const addrCacheMax = 4096

func (ac *addrCache) keyFor(a net.Addr) string {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return a.String()
	}
	ap := ua.AddrPort()
	if s, ok := ac.m[ap]; ok {
		return s
	}
	s := a.String()
	if ac.m == nil || len(ac.m) >= addrCacheMax {
		ac.m = make(map[netip.AddrPort]string, 64)
	}
	ac.m[ap] = s
	return s
}
