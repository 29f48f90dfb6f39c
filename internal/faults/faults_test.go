package faults

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeConn is an in-memory net.PacketConn: writes are recorded, reads pop
// from a queue.
type fakeConn struct {
	mu     sync.Mutex
	rx     [][]byte // packets delivered to ReadFrom
	tx     [][]byte // packets captured from WriteTo
	closed bool
}

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// timeoutErr stands in for a read deadline firing on an empty queue.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "fake: timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func (f *fakeConn) ReadFrom(b []byte) (int, net.Addr, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.rx) == 0 {
		return 0, nil, timeoutErr{}
	}
	p := f.rx[0]
	f.rx = f.rx[1:]
	return copy(b, p), fakeAddr{}, nil
}

func (f *fakeConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tx = append(f.tx, append([]byte(nil), b...))
	return len(b), nil
}

func (f *fakeConn) Close() error                     { f.mu.Lock(); f.closed = true; f.mu.Unlock(); return nil }
func (f *fakeConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (f *fakeConn) SetDeadline(time.Time) error      { return nil }
func (f *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (f *fakeConn) SetWriteDeadline(time.Time) error { return nil }

func (f *fakeConn) sent() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]byte, len(f.tx))
	copy(out, f.tx)
	return out
}

func TestPassthroughWhenInactive(t *testing.T) {
	fc := &fakeConn{rx: [][]byte{[]byte("hello")}}
	c := Wrap(fc, Config{Seed: 1})
	buf := make([]byte, 64)
	n, _, err := c.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	if _, err := c.WriteTo([]byte("world"), fakeAddr{}); err != nil {
		t.Fatal(err)
	}
	if got := fc.sent(); len(got) != 1 || string(got[0]) != "world" {
		t.Fatalf("sent = %q", got)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats = %+v, want zero", s)
	}
}

func TestOutboundDropAll(t *testing.T) {
	fc := &fakeConn{}
	c := Wrap(fc, Config{Seed: 7, Outbound: Profile{Drop: 1}})
	for i := 0; i < 10; i++ {
		n, err := c.WriteTo([]byte("x"), fakeAddr{})
		if err != nil || n != 1 {
			t.Fatalf("write = %d, %v", n, err)
		}
	}
	if got := fc.sent(); len(got) != 0 {
		t.Fatalf("%d packets leaked through a 100%% drop", len(got))
	}
	if s := c.Stats(); s.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", s.Dropped)
	}
}

func TestOutboundDuplicateAll(t *testing.T) {
	fc := &fakeConn{}
	c := Wrap(fc, Config{Seed: 7, Outbound: Profile{Dup: 1}})
	c.WriteTo([]byte("a"), fakeAddr{})
	if got := fc.sent(); len(got) != 2 {
		t.Fatalf("sent %d packets, want 2", len(got))
	}
}

func TestOutboundReorderSwapsPairs(t *testing.T) {
	fc := &fakeConn{}
	c := Wrap(fc, Config{Seed: 7, Outbound: Profile{Reorder: 1}})
	c.WriteTo([]byte("a"), fakeAddr{})
	c.WriteTo([]byte("b"), fakeAddr{})
	got := fc.sent()
	if len(got) != 2 || string(got[0]) != "b" || string(got[1]) != "a" {
		t.Fatalf("sent = %q, want [b a]", got)
	}
}

func TestInboundDropThenTimeout(t *testing.T) {
	fc := &fakeConn{rx: [][]byte{[]byte("a"), []byte("b")}}
	c := Wrap(fc, Config{Seed: 7, Inbound: Profile{Drop: 1}})
	buf := make([]byte, 16)
	_, _, err := c.ReadFrom(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout after dropping everything", err)
	}
	if s := c.Stats(); s.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped)
	}
}

func TestInboundDuplicate(t *testing.T) {
	fc := &fakeConn{rx: [][]byte{[]byte("a")}}
	c := Wrap(fc, Config{Seed: 7, Inbound: Profile{Dup: 1}})
	buf := make([]byte, 16)
	n, _, err := c.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "a" {
		t.Fatalf("first read = %q, %v", buf[:n], err)
	}
	n, _, err = c.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "a" {
		t.Fatalf("dup read = %q, %v", buf[:n], err)
	}
}

func TestInboundReorderFlushedOnTimeout(t *testing.T) {
	// With one packet and reorder=1 the packet is held awaiting a successor;
	// the read error (timeout) must flush it rather than lose it.
	fc := &fakeConn{rx: [][]byte{[]byte("a")}}
	c := Wrap(fc, Config{Seed: 7, Inbound: Profile{Reorder: 1}})
	buf := make([]byte, 16)
	n, _, err := c.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "a" {
		t.Fatalf("read = %q, %v (held packet lost)", buf[:n], err)
	}
}

func TestInboundCorrupt(t *testing.T) {
	payload := []byte("aaaaaaaaaaaaaaaa")
	fc := &fakeConn{rx: [][]byte{append([]byte(nil), payload...)}}
	c := Wrap(fc, Config{Seed: 7, Inbound: Profile{Corrupt: 1}})
	buf := make([]byte, 32)
	n, _, err := c.ReadFrom(buf)
	if err != nil || n != len(payload) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if string(buf[:n]) == string(payload) {
		t.Fatal("packet not corrupted at rate 1")
	}
	if s := c.Stats(); s.Corrupted != 1 {
		t.Fatalf("corrupted = %d, want 1", s.Corrupted)
	}
}

func TestDeterministicSequence(t *testing.T) {
	run := func() Stats {
		fc := &fakeConn{}
		c := Wrap(fc, Config{Seed: 42, Outbound: Profile{Drop: 0.3, Dup: 0.2, Reorder: 0.2, Corrupt: 0.1}})
		for i := 0; i < 200; i++ {
			c.WriteTo([]byte{byte(i)}, fakeAddr{})
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.Reordered == 0 || a.Corrupted == 0 {
		t.Fatalf("expected every fault type at these rates: %+v", a)
	}
}
