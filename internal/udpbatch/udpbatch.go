// Package udpbatch amortizes UDP send syscalls: a Sender transmits a slice
// of datagrams in one kernel crossing where the platform supports it (Linux
// sendmmsg), falling back to per-datagram WriteTo elsewhere — the WR/SD
// counterpart of batching queries into frames (paper §V-A): once responses
// are produced batch-at-a-time, the syscall boundary is the next per-frame
// cost worth amortizing.
//
// Sends are best-effort, matching UDP semantics: the caller gets no
// per-datagram delivery signal, and a datagram the kernel refuses is simply
// dropped (clients retry).
package udpbatch

import (
	"net"
	"sync"
)

// Message is one datagram to transmit.
type Message struct {
	Buf  []byte
	Addr net.Addr
}

// Sender sends batches of datagrams over one packet conn. It is safe for
// concurrent use; the batched path serializes on an internal scratch lock
// (concurrent Send calls are rare — one per completed pipeline batch).
type Sender struct {
	pc net.PacketConn

	mu      sync.Mutex
	scratch sendScratch // platform-specific sendmmsg staging (empty elsewhere)
	batched bool        // platform path available for pc
}

// NewSender returns a Sender over pc. The batched path engages only when pc
// is a real *net.UDPConn (a wrapped conn — e.g. the fault injector — must see
// every datagram, so it gets the WriteTo fallback).
func NewSender(pc net.PacketConn) *Sender {
	s := &Sender{pc: pc}
	if uc, ok := pc.(*net.UDPConn); ok {
		s.batched = s.scratch.init(uc)
	}
	return s
}

// Send transmits every message, best-effort, and returns how many the
// kernel refused. Buffers are not retained.
func (s *Sender) Send(msgs []Message) (failed int) {
	if len(msgs) == 0 {
		return 0
	}
	if s.batched && len(msgs) > 1 {
		s.mu.Lock()
		rest := s.scratch.send(msgs)
		s.mu.Unlock()
		// rest holds messages the batched path could not take (unconvertible
		// address, hard syscall error): deliver them the portable way.
		msgs = rest
	}
	for i := range msgs {
		if _, err := s.pc.WriteTo(msgs[i].Buf, msgs[i].Addr); err != nil {
			failed++
		}
	}
	return failed
}

// Receiver drains batches of datagrams from one packet conn in one kernel
// crossing where possible (Linux recvmmsg) — the RV-side counterpart of
// Sender. It is meant for a single reader goroutine and is not safe for
// concurrent use.
type Receiver struct {
	pc      net.PacketConn
	scratch recvScratch
	batched bool
}

// NewReceiver returns a Receiver over pc. Like the Sender, the batched path
// engages only for a real *net.UDPConn; a wrapped conn keeps seeing every
// datagram through its own ReadFrom.
func NewReceiver(pc net.PacketConn) *Receiver {
	r := &Receiver{pc: pc}
	if uc, ok := pc.(*net.UDPConn); ok {
		r.batched = r.scratch.init(uc)
	}
	return r
}

// Recv fills up to len(bufs) datagrams: it blocks until at least one
// arrives (honoring the conn's read deadline), then takes whatever else the
// socket already holds without blocking. sizes[i] and addrs[i] describe the
// datagram in bufs[i]. Returns the number of datagrams received.
func (r *Receiver) Recv(bufs [][]byte, addrs []net.Addr, sizes []int) (int, error) {
	if r.batched && len(bufs) > 1 {
		return r.scratch.recv(bufs, addrs, sizes)
	}
	n, a, err := r.pc.ReadFrom(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0], addrs[0] = n, a
	return 1, nil
}
