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
	// WrapConn wraps the listening socket before serving — the fault
	// injector's hook.
	WrapConn func(net.PacketConn) net.PacketConn
	// Dedupe computes the frame's reply-cache address key (frames with a
	// nonzero request ID); set when the core has a reply cache.
	Dedupe bool
	// MeasureParse times RV/PP per frame for the adaptation profile.
	MeasureParse bool
	// StampStart records the admission time per frame (slow-query log).
	StampStart bool
}

// UDP is the batched binary protocol over one UDP socket: one datagram per
// request frame, one or more per response. One reader goroutine (Run) runs
// RV/PP for every datagram; replies leave through one batched sender.
type UDP struct {
	opts UDPOptions

	mu sync.Mutex // guards pc against Addr racing Listen
	// pc and sender are set by Listen; Run, Interrupt, Shutdown and every
	// delivery run after Listen returned. pc is closed (field kept) by
	// Shutdown so stats remain readable.
	pc     net.PacketConn
	sender *udpbatch.Sender
	// addrs is touched only by the reader goroutine (keyFor runs on the
	// datagram path, before Admit), so it needs no lock.
	addrs addrCache

	started atomic.Bool
	runDone chan struct{}

	bufs   sync.Pool // []byte of proto.MaxFrameBytes
	frames sync.Pool // *udpFrame

	nframes   stats.Counter
	malformed stats.Counter
	bytesIn   stats.Counter
	bytesOut  stats.Counter
	sendErrs  stats.Counter
}

// udpFrame is the UDP-private context of one frame: the receive buffer the
// queries alias, the peer address, and the query count a busy reply is
// sized by.
type udpFrame struct {
	f       Frame
	buf     []byte
	raddr   net.Addr
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

// Listen binds the socket (wrapped when configured). Addr is valid after.
func (u *UDP) Listen(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		return err
	}
	var pc net.PacketConn = c
	if u.opts.WrapConn != nil {
		pc = u.opts.WrapConn(pc)
	}
	u.mu.Lock()
	u.pc, u.sender = pc, udpbatch.NewSender(pc)
	u.mu.Unlock()
	return nil
}

// Addr returns the bound address, or nil before Listen.
func (u *UDP) Addr() net.Addr {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.pc == nil {
		return nil
	}
	return u.pc.LocalAddr()
}

// Run is the read/admit/dispatch loop. It drains bursts of datagrams per
// kernel crossing (recvmmsg where available, mirroring the batched response
// sends) before running per-datagram admission. It exits nil once
// core.Draining and the socket read unblocks (Interrupt sets a read
// deadline); the socket stays up so draining frames still answer, until
// Shutdown. Any other read error ends Run with that error.
func (u *UDP) Run(core Core) error {
	u.started.Store(true)
	defer close(u.runDone)
	rcv := udpbatch.NewReceiver(u.pc)
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
			u.handleDatagram(core, buf, sizes[i], addrs[i])
		}
	}
}

// readErr classifies a receive error: exit cleanly when draining, ride out
// transient timeouts, fail on anything else.
func (u *UDP) readErr(core Core, err error) (done bool, _ error) {
	if core.Draining() {
		return true, nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false, nil
	}
	return true, err
}

// handleDatagram runs one datagram through header check, core admission,
// parse, and submission. It takes ownership of buf. Only the reader
// goroutine calls it.
func (u *UDP) handleDatagram(core Core, buf []byte, n int, raddr net.Addr) {
	u.bytesIn.Add(uint64(n))
	count, reqID, herr := proto.FrameHeader(buf[:n])
	if herr != nil {
		// Malformed or corrupted frame: drop, as a UDP service must.
		u.malformed.Inc()
		core.Malformed()
		u.bufs.Put(buf) //nolint:staticcheck // fixed-size buffer
		return
	}
	uf := u.frames.Get().(*udpFrame)
	uf.buf, uf.raddr, uf.count = buf, raddr, count
	f := &uf.f
	f.ReqID = reqID
	if u.opts.Dedupe && reqID != 0 {
		f.AKey = u.addrs.keyFor(raddr)
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
	u.nframes.Inc()
	core.Submit(f)
}

// Interrupt unblocks the read loop via a read deadline and waits for it to
// exit, so no further frame can reach the core.
func (u *UDP) Interrupt() {
	u.pc.SetReadDeadline(time.Now()) //nolint:errcheck
	if u.started.Load() {
		<-u.runDone
	}
}

// Shutdown closes the socket. Called after the core drained so every
// in-flight frame got its response first.
func (u *UDP) Shutdown() {
	u.pc.Close()
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
// sends as the platform allows (Linux sendmmsg — the WR/SD counterpart of
// batching queries into frames). Frames keep their order; datagrams the
// kernel refuses count as send errors.
func (u *UDP) DeliverBatch(fs []*Frame) {
	msgs := make([]udpbatch.Message, 0, len(fs))
	total := 0
	for _, f := range fs {
		raddr := f.Ctx.(*udpFrame).raddr
		for _, out := range f.Units {
			msgs = append(msgs, udpbatch.Message{Buf: out, Addr: raddr})
			total += len(out)
		}
	}
	if len(msgs) > 0 {
		u.sendErrs.Add(uint64(u.sender.Send(msgs)))
		u.bytesOut.Add(uint64(total))
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
	uf.count = 0
	if len(uf.queries) > 0 {
		uf.queries = uf.queries[:0]
	}
	f.reset()
	u.frames.Put(uf)
}

// FrontendStats snapshots the frontend's counters.
func (u *UDP) FrontendStats() Stats {
	return Stats{
		Frames:    u.nframes.Load(),
		Malformed: u.malformed.Load(),
		BytesIn:   u.bytesIn.Load(),
		BytesOut:  u.bytesOut.Load(),
		SendErrs:  u.sendErrs.Load(),
	}
}

// addrCache memoizes net.Addr → string conversions so the reply-cache path
// does not allocate a fresh address string per datagram. UDP addresses are
// keyed by their comparable netip.AddrPort form; other address types fall
// back to String(). Only the reader goroutine touches it, so it is
// unlocked.
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
