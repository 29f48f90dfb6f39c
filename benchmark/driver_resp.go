package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/proto"
)

// respSlot is one pipelined command batch in flight on a connection.
type respSlot struct {
	sent  time.Duration
	frame *frameBuf
	wire  []byte
}

type respConn struct {
	c  net.Conn
	br *bufio.Reader
	// inflight hands batches from the sender to the connection's receiver in
	// send order: RESP replies carry no id, position is all there is.
	inflight chan *respSlot
}

// respDriver pipelines RESP2 command batches: one sender, one receiver per
// connection, window batches outstanding per connection. frontend.RESPClient
// would do the round trip but allocates per reply and reads only after the
// whole write, which at 4096 commands a batch measures the client.
type respDriver struct {
	w     *workloadSpec
	conns []*respConn
}

func dialRESP(w *workloadSpec, addr string, conns int) (*respDriver, error) {
	d := &respDriver{w: w}
	for i := 0; i < conns; i++ {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		d.conns = append(d.conns, &respConn{c: c, br: bufio.NewReaderSize(c, 256<<10)})
	}
	return d, nil
}

func (d *respDriver) close() {
	for _, rc := range d.conns {
		rc.c.Close()
	}
}

func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// encodeRESP renders the frame's queries as one pipelined write.
func encodeRESP(dst []byte, queries []proto.Query) ([]byte, error) {
	for _, q := range queries {
		switch q.Op {
		case proto.OpGet:
			dst = append(dst, "*2\r\n$3\r\nGET\r\n"...)
			dst = appendBulk(dst, q.Key)
		case proto.OpSet:
			dst = append(dst, "*3\r\n$3\r\nSET\r\n"...)
			dst = appendBulk(dst, q.Key)
			dst = appendBulk(dst, q.Value)
		default:
			return nil, fmt.Errorf("resp driver: no encoding for %v", q.Op)
		}
	}
	return dst, nil
}

// readReply reads one reply and maps it onto the binary protocol's response
// space, as frontend.RESPClient does. The value aliases the reader's buffer
// and is valid until the next read.
func readReply(br *bufio.Reader) (proto.Response, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return proto.Response{}, err
	}
	if len(line) < 3 {
		return proto.Response{}, fmt.Errorf("resp driver: short reply line %q", line)
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+', ':':
		return proto.Response{Status: proto.StatusOK}, nil
	case '-':
		if len(body) >= 4 && string(body[:4]) == "BUSY" {
			return proto.Response{Status: proto.StatusBusy}, nil
		}
		return proto.Response{Status: proto.StatusError, Value: append([]byte(nil), body...)}, nil
	case '$':
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return proto.Response{}, fmt.Errorf("resp driver: bulk length %q", body)
		}
		if n < 0 {
			return proto.Response{Status: proto.StatusNotFound}, nil
		}
		val, err := br.Peek(n + 2)
		if err != nil {
			return proto.Response{}, err
		}
		_, _ = br.Discard(n + 2) // just peeked: cannot fall short
		return proto.Response{Status: proto.StatusOK, Value: val[:n]}, nil
	}
	return proto.Response{}, fmt.Errorf("resp driver: reply type %q", line[0])
}

func (d *respDriver) run(p runPlan) (*runOutcome, error) {
	if p.openFPS > 0 {
		return nil, fmt.Errorf("resp driver: no open loop")
	}
	window := p.window
	tokens := make(chan int, len(d.conns)*window) // one per batch slot, valued by connection
	for ci, rc := range d.conns {
		rc.inflight = make(chan *respSlot, window) // a slot is queued only while its token is out
		for i := 0; i < window; i++ {
			tokens <- ci
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	tallies := make([]*tally, len(d.conns))
	recvErr := make([]error, len(d.conns))
	free := make([]chan *respSlot, len(d.conns))
	abort := make(chan struct{}) // closed by the first receiver that gives up
	var abortOnce sync.Once
	for ci := range d.conns {
		tallies[ci] = planTally(p)
		free[ci] = make(chan *respSlot, window) // recycled slots, at most window of them
		for i := 0; i < window; i++ {
			free[ci] <- &respSlot{frame: newFrameBuf(d.w, p.src.frameQueries())}
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if recvErr[ci] = d.receive(ci, tallies[ci], start, p.deadline, tokens, free[ci]); recvErr[ci] != nil {
				abortOnce.Do(func() { close(abort) })
				for range d.conns[ci].inflight { // let the sender's hand-offs through until it stops
				}
			}
		}(ci)
	}

	out := &runOutcome{tally: *planTally(p)}
	total := p.ramp + p.measure
	var sendErr error
send:
	for sendErr == nil {
		var ci int
		select {
		case ci = <-tokens:
		case <-abort:
			break send
		}
		if !p.untilExhausted() && time.Since(start) >= total {
			break
		}
		rc := d.conns[ci]
		s := <-free[ci]
		if !p.src.fill(s.frame) {
			break
		}
		if s.wire, sendErr = encodeRESP(s.wire[:0], s.frame.queries); sendErr != nil {
			break
		}
		s.sent = time.Since(start)
		if out.measured(s.sent) {
			out.attempted += uint64(len(s.frame.queries))
		}
		rc.inflight <- s
		_ = rc.c.SetWriteDeadline(time.Now().Add(2 * time.Second)) // cannot fail on an open socket
		if _, err := rc.c.Write(s.wire); err != nil {
			sendErr = fmt.Errorf("send: %w", err)
		}
	}
	for _, rc := range d.conns {
		close(rc.inflight) // receivers finish what is in flight, then exit
	}
	wg.Wait()
	for ci, t := range tallies {
		out.tally.merge(t)
		if sendErr == nil {
			sendErr = recvErr[ci]
		}
	}
	return out, sendErr
}

// receive reads the replies of each batch sent on connection ci, in order. A
// batch that misses the deadline leaves the stream unattributable, so it
// ends the run.
func (d *respDriver) receive(ci int, t *tally, start time.Time, deadline time.Duration, tokens chan int, free chan *respSlot) error {
	rc := d.conns[ci]
	for s := range rc.inflight {
		nq := len(s.frame.queries)
		_ = rc.c.SetReadDeadline(start.Add(s.sent + deadline)) // cannot fail on an open socket
		count := t.measured(s.sent)
		ok := 0
		for i := 0; i < nq; i++ {
			r, err := readReply(rc.br)
			if err != nil {
				if count {
					t.failed += uint64(nq)
				}
				t.fail(count, &t.timeouts, nq, "batch of %d commands: reply %d: %v", nq, i, err)
				return fmt.Errorf("receive: %w", err)
			}
			if t.verify(d.w, s.frame.queries[i], s.frame.ranks[i], r, count) {
				ok++
			}
		}
		t.frameDone(s.sent, time.Since(start), nq, ok)
		free <- s
		tokens <- ci
	}
	return nil
}
