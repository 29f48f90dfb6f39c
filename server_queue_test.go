package dido

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// queueInjectors collects one fault injector per REUSEPORT queue socket —
// with NetQueues > 1 the WrapConn hook fires once per socket, so the single
// *faults.Conn idiom of the older chaos tests does not apply.
type queueInjectors struct {
	mu   sync.Mutex
	conn []*faults.Conn
}

func (qi *queueInjectors) wrap(profile faults.Profile) func(net.PacketConn) net.PacketConn {
	return func(pc net.PacketConn) net.PacketConn {
		qi.mu.Lock()
		defer qi.mu.Unlock()
		inj := faults.Wrap(pc, faults.Symmetric(int64(1000+len(qi.conn)), profile))
		qi.conn = append(qi.conn, inj)
		return inj
	}
}

func (qi *queueInjectors) stats() faults.Stats {
	qi.mu.Lock()
	defer qi.mu.Unlock()
	var sum faults.Stats
	for _, inj := range qi.conn {
		s := inj.Stats()
		sum.Dropped += s.Dropped
		sum.Duplicated += s.Duplicated
		sum.Reordered += s.Reordered
		sum.Corrupted += s.Corrupted
		sum.Delayed += s.Delayed
	}
	return sum
}

func (qi *queueInjectors) count() int {
	qi.mu.Lock()
	defer qi.mu.Unlock()
	return len(qi.conn)
}

// activeQueues counts ingestion queues that received at least one frame.
func activeQueues(srv *Server) (active, total int) {
	qs := srv.FrontendQueueStats("udp")
	for _, q := range qs {
		if q.Frames > 0 {
			active++
		}
	}
	return active, len(qs)
}

// dialSpread dials n clients to srv, one at a time, and sends one probe GET
// from each, so that between them they reach at least two of its REUSEPORT
// queues. The kernel picks a socket's queue by hashing its address, so n
// clients of a 4-queue server all land on one queue in 1 run of 4^(n-1).
// While the probes have reached only one queue, dialSpread replaces the last
// client with a fresh socket, up to 32 dials in all. opts gives client i's
// options.
func dialSpread(t *testing.T, srv *Server, addr string, n int, opts func(i int) ClientOptions) []*Client {
	t.Helper()
	var clients []*Client
	for dials := 1; len(clients) < n; dials++ {
		c, err := DialOpts(addr, opts(len(clients)))
		if err != nil {
			t.Fatalf("client %d dial: %v", len(clients), err)
		}
		if _, _, err := c.Get([]byte("dial-spread-probe")); err != nil {
			t.Fatalf("client %d probe: %v", len(clients), err)
		}
		clients = append(clients, c)
		if active, total := activeQueues(srv); len(clients) == n && total > 1 && active < 2 && dials < 32 {
			c.Close()
			clients = clients[:n-1]
		}
	}
	return clients
}

// TestMultiQueueChaosEquivalence is the multi-queue acceptance test: a
// 4-queue server behind per-queue fault injectors (drop + duplicate +
// reorder on every socket) must behave exactly like the single-queue one
// under the same chaos — zero client-visible errors, every value correct,
// and every acked SET executed at most once even though duplicates and
// retries may enter through any queue.
func TestMultiQueueChaosEquivalence(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
		cb := &countingStore{storeLive: storeLive{st.inner}}
		qi := &queueInjectors{}
		srv := faultyServer(t, st, cb, ServerOptions{
			NetQueues: 4,
			Pipeline:  po,
			WrapConn: qi.wrap(faults.Profile{
				Drop:    0.10,
				Dup:     0.05,
				Reorder: 0.10,
			}),
		})
		addr, errc := startServer(t, srv)
		defer srv.Close()

		if want := srv.NetQueues(); qi.count() != want {
			t.Fatalf("injector wrapped %d sockets, server reports %d queues", qi.count(), want)
		}

		// Each client is its own source socket, so the kernel hashes the
		// clients across the REUSEPORT queues.
		const clients = 6
		const rounds = 12
		const batch = 4
		conns := dialSpread(t, srv, addr, clients, func(ci int) ClientOptions {
			return ClientOptions{
				Timeout:    50 * time.Millisecond,
				Retries:    30,
				Backoff:    2 * time.Millisecond,
				MaxBackoff: 20 * time.Millisecond,
				Seed:       int64(ci + 1),
			}
		})
		var wg sync.WaitGroup
		var totalSets atomic.Int64
		for ci, c := range conns {
			wg.Add(1)
			go func(ci int, c *Client) {
				defer wg.Done()
				defer c.Close()
				for r := 0; r < rounds; r++ {
					var sets []Query
					for i := 0; i < batch; i++ {
						sets = append(sets, Query{
							Op:    OpSet,
							Key:   []byte(fmt.Sprintf("c%d:r%02d:k%d", ci, r, i)),
							Value: []byte(fmt.Sprintf("val-%d-%d-%d", ci, r, i)),
						})
					}
					resps, err := c.Do(sets)
					if err != nil {
						t.Errorf("client %d round %d SET: %v", ci, r, err)
						return
					}
					totalSets.Add(int64(len(sets)))
					for i, resp := range resps {
						if resp.Status != StatusOK {
							t.Errorf("client %d round %d SET %d status %d", ci, r, i, resp.Status)
							return
						}
					}
					var gets []Query
					for i := 0; i < batch; i++ {
						gets = append(gets, Query{Op: OpGet, Key: sets[i].Key})
					}
					resps, err = c.Do(gets)
					if err != nil {
						t.Errorf("client %d round %d GET: %v", ci, r, err)
						return
					}
					for i, resp := range resps {
						want := fmt.Sprintf("val-%d-%d-%d", ci, r, i)
						if resp.Status != StatusOK || string(resp.Value) != want {
							t.Errorf("client %d round %d GET %d = %d %q, want OK %q",
								ci, r, i, resp.Status, resp.Value, want)
							return
						}
					}
				}
			}(ci, c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		// At-most-once across queues: duplicated datagrams and retried
		// frames may arrive on any queue, yet each unique SET executed
		// exactly once against the store.
		if got, want := int64(cb.setCount()), totalSets.Load(); got != want {
			t.Fatalf("store executed %d SETs for %d unique requests — dedupe broke across queues", got, want)
		}

		fs := qi.stats()
		if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
			t.Fatalf("injectors idle: %+v", fs)
		}
		if active, total := activeQueues(srv); total > 1 && active < 2 {
			t.Fatalf("kernel did not spread %d clients across %d queues", clients, total)
		} else {
			t.Logf("chaos over %d/%d active queues: faults=%+v server=%+v", active, total, fs, srv.Stats())
		}
		srv.Close()
		waitServe(t, errc)
	})
}

// TestMultiQueueDurableRecovery pins commit-before-ack on the sharded
// ingestion tier: SETs acked through a 4-queue durable server must all
// survive an abrupt Close and reopen, regardless of which queue carried
// them.
func TestMultiQueueDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv := NewServerOpts(st, ServerOptions{
		NetQueues:  4,
		Durability: &DurabilityOptions{Dir: dir},
	})
	addr, errc := startServer(t, srv)

	const clients = 4
	const perClient = 16
	conns := dialSpread(t, srv, addr, clients, func(ci int) ClientOptions {
		return ClientOptions{Seed: int64(ci + 1)}
	})
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *Client) {
			defer wg.Done()
			defer c.Close()
			for i := 0; i < perClient; i++ {
				key := []byte(fmt.Sprintf("d%d:%d", ci, i))
				if err := c.Set(key, []byte(fmt.Sprintf("v%d-%d", ci, i))); err != nil {
					t.Errorf("set %s: %v", key, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if active, total := activeQueues(srv); total > 1 && active < 2 {
		t.Fatalf("durable writes all landed on one of %d queues", total)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitServe(t, errc)

	// Recover into a fresh store; every acked SET must be present.
	st2 := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv2 := NewServerOpts(st2, ServerOptions{Durability: &DurabilityOptions{Dir: dir}})
	defer srv2.Close()
	for ci := 0; ci < clients; ci++ {
		for i := 0; i < perClient; i++ {
			key := []byte(fmt.Sprintf("d%d:%d", ci, i))
			want := fmt.Sprintf("v%d-%d", ci, i)
			v, ok := st2.Get(key)
			if !ok || string(v) != want {
				t.Fatalf("after recovery %s = %q %v, want %q", key, v, ok, want)
			}
		}
	}
}

// TestMultiQueueCloseDrains pins the graceful-drain contract with sharded
// readers: Close during live multi-client traffic must interrupt every
// queue's reader, wait for in-flight frames, and return cleanly — no hang,
// no panic, and Serve returns nil.
func TestMultiQueueCloseDrains(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
		srv := NewServerOpts(st, ServerOptions{NetQueues: 4, Pipeline: po})
		addr, errc := startServer(t, srv)

		var stop atomic.Bool
		var wg sync.WaitGroup
		for ci := 0; ci < 6; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c, err := DialOpts(addr, ClientOptions{
					Timeout: 20 * time.Millisecond,
					Retries: 0,
					Seed:    int64(ci + 1),
				})
				if err != nil {
					return
				}
				defer c.Close()
				for i := 0; !stop.Load(); i++ {
					// Errors are expected once Close lands; the point is
					// the server side must drain without hanging.
					c.Set([]byte(fmt.Sprintf("dr%d:%d", ci, i)), []byte("v")) //nolint:errcheck
				}
			}(ci)
		}

		// Let traffic flow, then close mid-stream.
		deadline := time.Now().Add(2 * time.Second)
		for srv.Served() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if srv.Served() == 0 {
			t.Fatal("no traffic before Close")
		}
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung draining multi-queue readers")
		}
		waitServe(t, errc)
		stop.Store(true)
		wg.Wait()
	})
}
