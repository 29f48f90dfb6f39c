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

// dialClients dials n clients to addr; opts gives client i's options.
func dialClients(t *testing.T, addr string, n int, opts func(i int) ClientOptions) []*Client {
	t.Helper()
	clients := make([]*Client, n)
	for i := range clients {
		c, err := DialOpts(addr, opts(i))
		if err != nil {
			t.Fatalf("client %d dial: %v", i, err)
		}
		clients[i] = c
	}
	return clients
}

// TestMultiQueueChaosEquivalence (named for the multi-queue ingestion tier
// it was written for): concurrent clients behind a fault injector (drop +
// duplicate + reorder) see zero client-visible errors and every value
// correct, and every acked SET executed at most once although duplicates
// and retries of several clients' frames interleave.
func TestMultiQueueChaosEquivalence(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
		cb := &countingStore{storeLive: storeLive{st.inner}}
		var injector *faults.Conn
		srv := faultyServer(t, st, cb, ServerOptions{
			Pipeline: po,
			WrapConn: func(pc net.PacketConn) net.PacketConn {
				injector = faults.Wrap(pc, faults.Symmetric(1000, faults.Profile{
					Drop:    0.10,
					Dup:     0.05,
					Reorder: 0.10,
				}))
				return injector
			},
		})
		addr, errc := startServer(t, srv)
		defer srv.Close()

		const clients = 6
		const rounds = 12
		const batch = 4
		conns := dialClients(t, addr, clients, func(ci int) ClientOptions {
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

		// At-most-once: duplicated datagrams and retried frames of every
		// client arrive, yet each unique SET executed exactly once against
		// the store.
		if got, want := int64(cb.setCount()), totalSets.Load(); got != want {
			t.Fatalf("store executed %d SETs for %d unique requests — dedupe broke", got, want)
		}

		fs := injector.Stats()
		if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
			t.Fatalf("injector idle: %+v", fs)
		}
		t.Logf("chaos: faults=%+v server=%+v", fs, srv.Stats())
		srv.Close()
		waitServe(t, errc)
	})
}

// TestMultiQueueDurableRecovery (named for the multi-queue ingestion tier
// it was written for) pins commit-before-ack under concurrent writers: SETs
// acked by a durable server to several clients at once must all survive an
// abrupt Close and reopen.
func TestMultiQueueDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv := NewServerOpts(st, ServerOptions{
		Durability: &DurabilityOptions{Dir: dir},
	})
	addr, errc := startServer(t, srv)

	const clients = 4
	const perClient = 16
	conns := dialClients(t, addr, clients, func(ci int) ClientOptions {
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

// TestMultiQueueCloseDrains (named for the multi-queue ingestion tier it
// was written for) pins the graceful-drain contract: Close during live
// multi-client traffic must interrupt the reader, wait for in-flight
// frames, and return cleanly — no hang, no panic, and Serve returns nil.
func TestMultiQueueCloseDrains(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
		srv := NewServerOpts(st, ServerOptions{Pipeline: po})
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
			t.Fatal("Close hung draining the reader")
		}
		waitServe(t, errc)
		stop.Store(true)
		wg.Wait()
	})
}
