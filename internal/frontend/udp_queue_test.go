package frontend

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/udpbatch"
)

// dedupeCore is a minimal Core with the server's reply-cache shape: replayed
// (AKey, ReqID) pairs are answered from cache without re-executing, so the
// tests can observe at-most-once behavior across queues.
type dedupeCore struct {
	mu       sync.Mutex
	cache    map[string][][]byte // AKey+reqID → delivered units
	execs    atomic.Int64
	replays  atomic.Int64
	draining atomic.Bool
}

func newDedupeCore() *dedupeCore {
	return &dedupeCore{cache: make(map[string][][]byte)}
}

func (c *dedupeCore) key(f *Frame) string {
	return f.AKey + "#" + string(rune(f.ReqID))
}

func (c *dedupeCore) Admit(f *Frame) bool {
	if f.AKey == "" || f.ReqID == 0 {
		return true
	}
	c.mu.Lock()
	units, ok := c.cache[c.key(f)]
	c.mu.Unlock()
	if ok {
		c.replays.Add(1)
		f.Units = units
		f.R.DeliverBatch([]*Frame{f})
		f.R.Release(f)
		return false
	}
	return true
}

func (c *dedupeCore) Submit(f *Frame) {
	c.execs.Add(1)
	resps := make([]proto.Response, len(f.Queries))
	for i := range resps {
		resps[i].Status = proto.StatusOK
	}
	f.Units = f.R.Encode(f, resps)
	if f.AKey != "" && f.ReqID != 0 {
		c.mu.Lock()
		c.cache[c.key(f)] = f.Units
		c.mu.Unlock()
	}
	f.R.DeliverBatch([]*Frame{f})
	f.R.Release(f)
}

func (c *dedupeCore) Cancel(f *Frame) { f.R.Release(f) }
func (c *dedupeCore) Malformed()      {}
func (c *dedupeCore) Draining() bool  { return c.draining.Load() }

// TestUDPMultiQueueSpread drives a 4-queue UDP frontend from many distinct
// source sockets and asserts (a) every request is answered, (b) the kernel
// actually spread flows across at least two queues, and (c) per-queue and
// summed stats agree.
func TestUDPMultiQueueSpread(t *testing.T) {
	u := NewUDP(UDPOptions{Dedupe: true, Queues: 4})
	if err := u.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	core := newDedupeCore()
	runErr := make(chan error, 1)
	go func() { runErr <- u.Run(core) }()
	defer func() {
		core.draining.Store(true)
		u.Interrupt()
		u.Shutdown()
		if err := <-runErr; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()

	addr := u.Addr().String()
	const clients = 48
	var wg sync.WaitGroup
	var answered atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			req := proto.EncodeFrameV2(nil, uint64(i+1), []proto.Query{
				{Op: proto.OpSet, Key: []byte("k"), Value: []byte("v")},
			})
			buf := make([]byte, proto.MaxFrameBytes)
			for attempt := 0; attempt < 20; attempt++ {
				if _, err := conn.Write(req); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
				if _, err := conn.Read(buf); err == nil {
					answered.Add(1)
					return
				}
			}
			t.Errorf("client %d: no reply after retries", i)
		}(i)
	}
	wg.Wait()
	if got := answered.Load(); got != clients {
		t.Fatalf("answered %d/%d clients", got, clients)
	}

	qs := u.QueueStats()
	if want := udpbatch.MaxQueues(4); len(qs) != want {
		t.Fatalf("QueueStats reports %d queues, want %d", len(qs), want)
	}
	var sumFrames uint64
	active := 0
	for _, q := range qs {
		sumFrames += q.Frames
		if q.Frames > 0 {
			active++
		}
	}
	if st := u.FrontendStats(); st.Frames != sumFrames {
		t.Fatalf("summed stats disagree: FrontendStats.Frames=%d, Σqueues=%d", st.Frames, sumFrames)
	}
	if len(qs) > 1 && active < 2 {
		t.Fatalf("kernel did not spread flows: per-queue frames %+v", qs)
	}
}

// TestUDPCrossQueueRetrySameAKey pins the dedupe invariant the multi-queue
// tier depends on: the same peer's address key is an equal string no matter
// which queue computed it (each queue has its own unlocked addrCache), so a
// retry that the kernel hashes to a different queue still replays from the
// reply cache instead of re-executing.
func TestUDPCrossQueueRetrySameAKey(t *testing.T) {
	u := NewUDP(UDPOptions{Dedupe: true, Queues: 4})
	if err := u.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer u.Shutdown()
	qs := u.snapshot()
	if len(qs) < 2 {
		t.Skip("no SO_REUSEPORT on this platform")
	}
	core := newDedupeCore()
	raddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 54321}
	frame := proto.EncodeFrameV2(nil, 7, []proto.Query{
		{Op: proto.OpSet, Key: []byte("k"), Value: []byte("v")},
	})
	deliver := func(q *udpQueue) {
		buf := u.bufs.Get().([]byte)
		n := copy(buf, frame)
		u.handleDatagram(core, q, buf, n, raddr)
	}
	deliver(qs[0]) // original lands on queue 0
	deliver(qs[1]) // retry hashes to queue 1
	if got := core.execs.Load(); got != 1 {
		t.Fatalf("executed %d times across queues, want exactly 1", got)
	}
	if got := core.replays.Load(); got != 1 {
		t.Fatalf("replayed %d times, want 1", got)
	}
	if k0, k1 := qs[0].addrs.keyFor(raddr), qs[1].addrs.keyFor(raddr); k0 != k1 {
		t.Fatalf("per-queue addr keys differ: %q vs %q", k0, k1)
	}
}

// TestUDPSingleQueueFallback pins that Queues ≤ 1 (or an unsupported
// platform) behaves exactly like the historical single-socket frontend.
func TestUDPSingleQueueFallback(t *testing.T) {
	u := NewUDP(UDPOptions{Queues: 1})
	if err := u.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer u.Shutdown()
	if got := len(u.QueueStats()); got != 1 {
		t.Fatalf("single-queue frontend reports %d queues, want 1", got)
	}
	if u.Addr() == nil {
		t.Fatal("Addr nil after Listen")
	}
}

// TestResponseFramesExactCapacity pins the reply buffers' sizing: every frame
// AppendResponseFrames hands the reply cache is allocated once at its final
// length, across a multi-datagram split, and the frames still decode to the
// responses that went in.
func TestResponseFramesExactCapacity(t *testing.T) {
	resps := make([]proto.Response, 40)
	for i := range resps {
		resps[i] = proto.Response{Status: proto.StatusOK, Value: make([]byte, 100*i)} // 78 KB: two datagrams
	}
	frames := AppendResponseFrames(nil, 7, resps)
	if len(frames) < 2 {
		t.Fatalf("%d frames, want a split", len(frames))
	}
	var back []proto.Response
	for _, f := range frames {
		if cap(f) != len(f) {
			t.Errorf("frame of %d bytes has capacity %d", len(f), cap(f))
		}
		var err error
		if back, _, _, err = proto.ParseResponseFrameID(f, back); err != nil {
			t.Fatal(err)
		}
	}
	if len(back) != len(resps) {
		t.Fatalf("%d responses came back, want %d", len(back), len(resps))
	}
}
