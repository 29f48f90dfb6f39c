// Package faults provides a deterministic, seedable fault injector for the
// real (non-simulated) serving path: a net.PacketConn wrapper that drops,
// duplicates, reorders, corrupts and delays datagrams with configurable
// per-direction rates (this file), the same faults for stream connections
// (stream.go), and a WAL file wrapper for fsync failures (disk.go).
//
// The injector exists so the test suite can exercise the fault-tolerance
// machinery (request IDs, retries, admission control, WAL error handling)
// without a real lossy network or failing disk; tests install it through the
// server's ServerOptions.WrapConn / WrapStreamConn and
// DurabilityOptions.OpenFile hooks and the client's ClientOptions.WrapConn.
// No binary links it. All randomness comes from a single seed, so a failing
// run reproduces exactly.
package faults

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// Profile gives the fault rates of one traffic direction. All rates are
// probabilities in [0, 1] applied independently per datagram.
type Profile struct {
	// Drop discards the datagram.
	Drop float64
	// Dup delivers the datagram twice.
	Dup float64
	// Reorder holds the datagram back until after the next one.
	Reorder float64
	// Corrupt flips one to three random payload bytes.
	Corrupt float64
	// Delay sleeps Delay ± DelayJitter before delivering.
	Delay       time.Duration
	DelayJitter time.Duration
}

// active reports whether the profile injects anything at all.
func (p Profile) active() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Reorder > 0 || p.Corrupt > 0 || p.Delay > 0
}

// Config configures a Conn. Inbound applies to datagrams read from the
// wrapped conn, Outbound to datagrams written to it.
type Config struct {
	Seed     int64
	Inbound  Profile
	Outbound Profile
}

// Symmetric returns a Config applying p in both directions.
func Symmetric(seed int64, p Profile) Config {
	return Config{Seed: seed, Inbound: p, Outbound: p}
}

// Stats is a snapshot of injected-fault counts, summed over both directions.
type Stats struct {
	Dropped, Duplicated, Reordered, Corrupted, Delayed uint64
}

// packet is a buffered datagram (inbound only; outbound writes through).
type packet struct {
	data []byte
	addr net.Addr
}

// side is the per-direction injector state. Each direction owns its own RNG
// so inbound and outbound fault sequences are independently deterministic.
type side struct {
	mu      sync.Mutex
	rng     *rand.Rand
	profile Profile

	pending []packet // datagrams ready for delivery ahead of the socket
	held    *packet  // datagram being reordered past its successor

	dropped, duplicated, reordered, corrupted, delayed stats.Counter
}

// Conn wraps a net.PacketConn (in practice a *net.UDPConn) and injects the
// configured faults. It implements net.PacketConn, and additionally Read and
// Write when the wrapped conn does (a connected UDP socket), so it can stand
// in on both the server and the client side. Reads and writes are each
// serialized internally; the wrapper is safe for concurrent use wherever the
// wrapped conn is.
type Conn struct {
	pc net.PacketConn
	rw io.ReadWriter // non-nil when pc supports connected Read/Write

	in, out side
}

// Wrap returns c behind a fault injector configured by cfg.
func Wrap(c net.PacketConn, cfg Config) *Conn {
	fc := &Conn{pc: c}
	if rw, ok := c.(io.ReadWriter); ok {
		fc.rw = rw
	}
	fc.in = side{rng: rand.New(rand.NewSource(cfg.Seed)), profile: cfg.Inbound}
	fc.out = side{rng: rand.New(rand.NewSource(cfg.Seed + 1)), profile: cfg.Outbound}
	return fc
}

// Stats returns the total injected-fault counts.
func (c *Conn) Stats() Stats {
	var s Stats
	for _, d := range []*side{&c.in, &c.out} {
		s.Dropped += d.dropped.Load()
		s.Duplicated += d.duplicated.Load()
		s.Reordered += d.reordered.Load()
		s.Corrupted += d.corrupted.Load()
		s.Delayed += d.delayed.Load()
	}
	return s
}

// corrupt flips 1-3 bytes of b in place using the side's RNG (caller holds
// the lock).
func (d *side) corrupt(b []byte) {
	if len(b) == 0 {
		return
	}
	n := 1 + d.rng.Intn(3)
	for i := 0; i < n; i++ {
		b[d.rng.Intn(len(b))] ^= byte(1 + d.rng.Intn(255))
	}
	d.corrupted.Inc()
}

// delayFor returns the configured delay with jitter (caller holds the lock),
// or 0 when no delay is configured.
func (d *side) delayFor() time.Duration {
	p := d.profile
	if p.Delay <= 0 {
		return 0
	}
	dl := p.Delay
	if p.DelayJitter > 0 {
		dl += time.Duration(d.rng.Int63n(int64(2*p.DelayJitter))) - p.DelayJitter
	}
	if dl < 0 {
		dl = 0
	}
	d.delayed.Inc()
	return dl
}

// ReadFrom implements net.PacketConn with inbound faults applied.
func (c *Conn) ReadFrom(b []byte) (int, net.Addr, error) {
	return c.recv(b, func(buf []byte) (int, net.Addr, error) {
		return c.pc.ReadFrom(buf)
	})
}

// Read reads from a connected wrapped conn with inbound faults applied.
func (c *Conn) Read(b []byte) (int, error) {
	if c.rw == nil {
		return 0, errors.New("faults: wrapped conn does not support Read")
	}
	n, _, err := c.recv(b, func(buf []byte) (int, net.Addr, error) {
		n, err := c.rw.Read(buf)
		return n, nil, err
	})
	return n, err
}

// recv applies the inbound fault pipeline around one underlying read.
func (c *Conn) recv(b []byte, read func([]byte) (int, net.Addr, error)) (int, net.Addr, error) {
	d := &c.in
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.profile.active() {
		// Fast path: no buffering, read straight through.
		d.mu.Unlock()
		n, addr, err := read(b)
		d.mu.Lock()
		return n, addr, err
	}
	scratch := make([]byte, len(b))
	for {
		if len(d.pending) > 0 {
			p := d.pending[0]
			d.pending = d.pending[1:]
			return c.deliver(d, b, p)
		}
		d.mu.Unlock()
		n, addr, err := read(scratch)
		d.mu.Lock()
		if err != nil {
			// Flush a reordered datagram rather than losing it: the
			// successor it was waiting for may never come (timeout, close).
			if d.held != nil {
				p := *d.held
				d.held = nil
				return c.deliver(d, b, p)
			}
			return 0, nil, err
		}
		p := packet{data: append([]byte(nil), scratch[:n]...), addr: addr}
		if d.rng.Float64() < d.profile.Drop {
			d.dropped.Inc()
			continue
		}
		if d.rng.Float64() < d.profile.Dup {
			d.duplicated.Inc()
			d.pending = append(d.pending, packet{data: append([]byte(nil), p.data...), addr: p.addr})
		}
		if d.held == nil && d.rng.Float64() < d.profile.Reorder {
			d.reordered.Inc()
			held := p
			d.held = &held
			continue
		}
		if d.held != nil {
			held := *d.held
			d.held = nil
			d.pending = append(d.pending, held)
		}
		return c.deliver(d, b, p)
	}
}

// deliver finishes one inbound datagram: corruption, delay, copy-out.
// Caller holds d.mu; the delay sleep happens with the lock held, modeling a
// serialized slow link.
func (c *Conn) deliver(d *side, b []byte, p packet) (int, net.Addr, error) {
	if d.rng.Float64() < d.profile.Corrupt {
		d.corrupt(p.data)
	}
	if dl := d.delayFor(); dl > 0 {
		time.Sleep(dl)
	}
	return copy(b, p.data), p.addr, nil
}

// WriteTo implements net.PacketConn with outbound faults applied.
func (c *Conn) WriteTo(b []byte, addr net.Addr) (int, error) {
	return c.send(b, func(p []byte) (int, error) {
		return c.pc.WriteTo(p, addr)
	})
}

// Write writes to a connected wrapped conn with outbound faults applied.
func (c *Conn) Write(b []byte) (int, error) {
	if c.rw == nil {
		return 0, errors.New("faults: wrapped conn does not support Write")
	}
	return c.send(b, c.rw.Write)
}

// send applies the outbound fault pipeline around one underlying write. The
// datagram's reported size is always len(b): a dropped or held write still
// "succeeds" from the caller's point of view, as it would on a real network.
func (c *Conn) send(b []byte, write func([]byte) (int, error)) (int, error) {
	d := &c.out
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.profile.active() {
		return write(b)
	}
	if d.rng.Float64() < d.profile.Drop {
		d.dropped.Inc()
		return len(b), nil
	}
	if dl := d.delayFor(); dl > 0 {
		time.Sleep(dl)
	}
	if d.held == nil && d.rng.Float64() < d.profile.Reorder {
		d.reordered.Inc()
		d.held = &packet{data: append([]byte(nil), b...)}
		return len(b), nil
	}
	if err := d.writeOne(b, write); err != nil {
		return 0, err
	}
	if d.held != nil {
		held := d.held
		d.held = nil
		if err := d.writeOne(held.data, write); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// writeOne emits one datagram, applying corruption and duplication.
func (d *side) writeOne(b []byte, write func([]byte) (int, error)) error {
	out := b
	if d.rng.Float64() < d.profile.Corrupt {
		out = append([]byte(nil), b...)
		d.corrupt(out)
	}
	if _, err := write(out); err != nil {
		return err
	}
	if d.rng.Float64() < d.profile.Dup {
		d.duplicated.Inc()
		if _, err := write(out); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the wrapped conn. Held (reordered) datagrams are discarded,
// as a failing link would.
func (c *Conn) Close() error { return c.pc.Close() }

// LocalAddr returns the wrapped conn's local address.
func (c *Conn) LocalAddr() net.Addr { return c.pc.LocalAddr() }

// SetDeadline delegates to the wrapped conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.pc.SetDeadline(t) }

// SetReadDeadline delegates to the wrapped conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.pc.SetReadDeadline(t) }

// SetWriteDeadline delegates to the wrapped conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.pc.SetWriteDeadline(t) }
