package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// runPlan is one phase of traffic against a running server.
type runPlan struct {
	src frameSource
	// ramp is sent but not measured; measure follows it. Both zero means run
	// until src is exhausted and count every frame (the preload).
	ramp, measure time.Duration
	// openFPS > 0 sends on an absolute schedule of that many frames per
	// second instead of as fast as the window allows.
	openFPS float64
	// window is the frames outstanding per connection.
	window int
	// deadline is how long a frame may wait for its reply before its queries
	// count as failed.
	deadline time.Duration
}

func (p runPlan) untilExhausted() bool { return p.ramp == 0 && p.measure == 0 }

// runOutcome is what a phase observed, merged over the receivers.
type runOutcome struct {
	tally
	attempted uint64    // queries of measured frames the sender issued
	lateUS    []float64 // open loop: how late each measured frame left, µs
}

// driver is a load generator bound to one server.
type driver interface {
	run(p runPlan) (*runOutcome, error)
	close()
}

// planTally sizes a tally for p: the preload has no slices, it is not a rate.
func planTally(p runPlan) *tally {
	if p.untilExhausted() {
		return &tally{measureTo: 1 << 62}
	}
	return newTally(p.ramp, p.ramp+p.measure)
}

// expiryScan is how often a receiver looks for frames past their deadline; it
// is also its read deadline, so a silent socket cannot stall the scan.
const expiryScan = 50 * time.Millisecond

// udpSlot is one frame in flight. The sender owns it while reqID is zero and
// hands it to the connection's receiver by storing the id; the receiver hands
// it back by zeroing the id and returning the slot's token.
type udpSlot struct {
	reqID atomic.Uint64
	sent  time.Duration // offset from the run start the frame is timed from: the due time in the open loop
	wrote time.Duration // when it actually left, which the reply deadline runs from
	frame *frameBuf
	wire  []byte
	got   int // replies received so far
	ok    int // of which verified
}

type udpConn struct {
	c     *net.UDPConn
	slots []udpSlot
}

type token struct{ conn, slot int }

// udpDriver is the windowed DKV2 driver: one sender, one receiver per socket,
// a fixed number of frames outstanding per socket. The shipped dido.Client
// keeps a single frame in flight, which never lets the server form a batch.
type udpDriver struct {
	w     *workloadSpec
	conns []*udpConn
	seq   uint64 // request ids are unique over the driver's life
}

func dialUDP(w *workloadSpec, addr string, conns int) (*udpDriver, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	d := &udpDriver{w: w}
	for i := 0; i < conns; i++ {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		// Replies to a full window must fit even if the receiver is
		// descheduled for a while; the kernel clamps to rmem_max.
		_ = c.SetReadBuffer(4 << 20) // best effort: the default only makes drops likelier
		d.conns = append(d.conns, &udpConn{c: c})
	}
	return d, nil
}

func (d *udpDriver) close() {
	for _, uc := range d.conns {
		uc.c.Close()
	}
}

func (d *udpDriver) run(p runPlan) (*runOutcome, error) {
	tokens := make(chan token, len(d.conns)*p.window) // one per slot
	for ci, uc := range d.conns {
		uc.slots = make([]udpSlot, p.window)
		for si := range uc.slots {
			uc.slots[si].frame = newFrameBuf(d.w, p.src.frameQueries())
			tokens <- token{ci, si}
		}
	}

	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	tallies := make([]*tally, len(d.conns))
	for ci := range d.conns {
		tallies[ci] = planTally(p)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			d.receive(ci, tallies[ci], start, p.deadline, &stop, tokens)
		}(ci)
	}

	out := &runOutcome{tally: *planTally(p)}
	sendErr := d.send(p, out, start, tokens)

	// Every slot comes back: answered, or expired by its receiver.
	for i := 0; i < cap(tokens) && sendErr == nil; i++ {
		<-tokens
	}
	stop.Store(true)
	for _, uc := range d.conns {
		_ = uc.c.SetReadDeadline(time.Now()) // wake the receiver; it re-arms at most one scan period
	}
	wg.Wait()
	for _, t := range tallies {
		out.tally.merge(t)
	}
	return out, sendErr
}

// send is the single sender: it draws frames from the source in order, so
// the stream is a function of the seed alone.
func (d *udpDriver) send(p runPlan, out *runOutcome, start time.Time, tokens chan token) error {
	total := p.ramp + p.measure
	sched := newOpenSchedule(p.openFPS)
	for i := int64(0); ; i++ {
		var due time.Duration
		if p.openFPS > 0 {
			if due = sched.due(i); due >= total {
				return nil
			}
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		// Closed loop: the next frame leaves when a slot frees. Open loop: at
		// its due time, or when a slot frees if that is later — the backlog of
		// a server stall then waits here and not in the server's socket
		// buffer (212 992 bytes by default, 30 ms of this traffic: past that
		// the kernel drops frames), and since the frame is timed from when it
		// was due, the wait is charged to the server either way.
		tk := <-tokens
		if p.openFPS == 0 && !p.untilExhausted() && time.Since(start) >= total {
			tokens <- tk
			return nil
		}
		uc := d.conns[tk.conn]
		s := &uc.slots[tk.slot]
		if !p.src.fill(s.frame) {
			tokens <- tk
			return nil
		}
		d.seq++
		id := d.seq<<16 | uint64(tk.slot)
		s.wire = proto.EncodeFrameV2(s.wire[:0], id, s.frame.queries)
		s.got, s.ok = 0, 0
		now := time.Since(start)
		s.sent, s.wrote = now, now
		if p.openFPS > 0 {
			s.sent = due
		}
		if out.measured(s.sent) {
			out.attempted += uint64(len(s.frame.queries))
			if p.openFPS > 0 {
				out.lateUS = append(out.lateUS, float64(lateness(due, now))/float64(time.Microsecond))
			}
		}
		s.reqID.Store(id)
		if _, err := uc.c.Write(s.wire); err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
}

// receive answers for one socket until stop. A read error (the server died
// and the kernel says so) is noted and the loop goes on: expiring the frames
// in flight is what lets the sender finish and the run report the failure.
func (d *udpDriver) receive(ci int, t *tally, start time.Time, deadline time.Duration, stop *atomic.Bool, tokens chan token) {
	uc := d.conns[ci]
	buf := make([]byte, proto.MaxFrameBytes)
	var resps []proto.Response
	var lastScan time.Duration
	for !stop.Load() {
		_ = uc.c.SetReadDeadline(time.Now().Add(expiryScan)) // cannot fail on an open socket
		n, err := uc.c.Read(buf)
		now := time.Since(start)
		switch {
		case err == nil:
			resps = d.onDatagram(uc, ci, t, buf[:n], resps[:0], now, tokens)
		case errors.Is(err, os.ErrDeadlineExceeded):
		default:
			if t.firstFailure == "" {
				t.firstFailure = "receive: " + err.Error()
			}
			time.Sleep(time.Millisecond)
		}
		if now-lastScan >= expiryScan {
			lastScan = now
			for si := range uc.slots {
				s := &uc.slots[si]
				if s.reqID.Load() != 0 && now-s.wrote > deadline {
					nq := len(s.frame.queries)
					counts := t.measured(s.sent)
					if counts {
						t.failed += uint64(nq)
					}
					t.fail(counts, &t.timeouts, nq, "frame of %d queries: no reply within %v", nq, deadline)
					s.reqID.Store(0)
					tokens <- token{ci, si}
				}
			}
		}
	}
}

func (d *udpDriver) onDatagram(uc *udpConn, ci int, t *tally, dgram []byte, resps []proto.Response, now time.Duration, tokens chan token) []proto.Response {
	resps, id, offset, err := proto.ParseResponseFrameID(dgram, resps)
	si := int(id & 0xffff)
	if err != nil || si >= len(uc.slots) || uc.slots[si].reqID.Load() != id {
		t.strays++
		return resps
	}
	s := &uc.slots[si]
	count := t.measured(s.sent)
	for i, r := range resps {
		qi := offset + i
		if qi >= len(s.frame.queries) {
			t.fail(count, &t.mismatches, 1, "reply %d of a %d-query frame", qi, len(s.frame.queries))
			continue
		}
		if t.verify(d.w, s.frame.queries[qi], s.frame.ranks[qi], r, count) {
			s.ok++
		}
	}
	s.got += len(resps)
	if s.got >= len(s.frame.queries) {
		t.frameDone(s.sent, now, len(s.frame.queries), s.ok)
		s.reqID.Store(0)
		tokens <- token{ci, si}
	}
	return resps
}
