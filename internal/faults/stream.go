package faults

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Stream fault injection: the TCP analogue of the datagram Conn wrapper.
// Streams cannot drop or reorder without breaking the transport itself, so
// the interesting faults are different — stalls (a slowloris client that
// stops draining its receive window, or trickles its request), short reads
// (commands torn across arbitrary chunk boundaries, which a correct parser
// must reassemble), and corruption (garbage bytes that must produce an
// in-band protocol error, not a crash or desync).

// StreamConfig configures a StreamConn. All rates are probabilities in
// [0, 1] applied independently per Read/Write call.
type StreamConfig struct {
	Seed int64
	// StallRate makes a read or write sleep Stall first — on the server side
	// this models a slowloris peer; keep Stall under the server's write
	// timeout unless tearing the connection down is the point.
	StallRate float64
	Stall     time.Duration
	// ShortRate truncates a read to a 1-byte trickle, tearing commands
	// across reads.
	ShortRate float64
	// CorruptRate flips one to three bytes of a read chunk.
	CorruptRate float64
}

func (c StreamConfig) active() bool {
	return (c.StallRate > 0 && c.Stall > 0) || c.ShortRate > 0 || c.CorruptRate > 0
}

// StreamConn wraps a net.Conn with injected stream faults. Reads and writes
// are each internally serialized; the wrapper is safe for concurrent use
// wherever the wrapped conn is.
type StreamConn struct {
	net.Conn

	mu  sync.Mutex
	rng *rand.Rand
	cfg StreamConfig
}

// WrapStream returns c behind a stream fault injector configured by cfg.
func WrapStream(c net.Conn, cfg StreamConfig) *StreamConn {
	return &StreamConn{Conn: c, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// roll draws one fault decision set. The sleep happens outside the lock so
// concurrent reads and writes stall independently.
func (c *StreamConn) roll(read bool) (short, corrupt bool) {
	c.mu.Lock()
	stall := c.cfg.StallRate > 0 && c.cfg.Stall > 0 && c.rng.Float64() < c.cfg.StallRate
	if read {
		short = c.cfg.ShortRate > 0 && c.rng.Float64() < c.cfg.ShortRate
		corrupt = c.cfg.CorruptRate > 0 && c.rng.Float64() < c.cfg.CorruptRate
	}
	c.mu.Unlock()
	if stall {
		time.Sleep(c.cfg.Stall)
	}
	return short, corrupt
}

// Read reads from the wrapped conn with stalls, short reads and corruption
// applied. A short read delivers exactly one byte of whatever arrived —
// stream semantics keep this correct, it just tears framing apart.
func (c *StreamConn) Read(b []byte) (int, error) {
	if !c.cfg.active() {
		return c.Conn.Read(b)
	}
	short, corrupt := c.roll(true)
	if short && len(b) > 1 {
		b = b[:1]
	}
	n, err := c.Conn.Read(b)
	if corrupt && n > 0 {
		c.mu.Lock()
		flips := 1 + c.rng.Intn(3)
		for i := 0; i < flips; i++ {
			b[c.rng.Intn(n)] ^= byte(1 + c.rng.Intn(255))
		}
		c.mu.Unlock()
	}
	return n, err
}

// Write writes to the wrapped conn, possibly stalling first. Written bytes
// are never altered or dropped: a TCP peer's kernel would not corrupt
// acknowledged data, and tearing the reply stream is the RESP frontend's
// write timeout's job.
func (c *StreamConn) Write(b []byte) (int, error) {
	if !c.cfg.active() {
		return c.Conn.Write(b)
	}
	c.roll(false)
	return c.Conn.Write(b)
}
