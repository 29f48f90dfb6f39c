package dido

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/proto"
)

// TestServeScanEndToEnd drives SCAN through the full stack: keys in, ordered
// results out, identical across the UDP binary protocol and RESP, with limit
// clamping and cursor pagination (start = last key + "\x00").
func TestServeScanEndToEnd(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 8 << 20, Ordered: true})
		srv := NewServerOpts(st, ServerOptions{Pipeline: po})
		udpAddr, udpErrc := startServer(t, srv)
		respAddr, respErrc := startRESP(t, srv)
		defer srv.Close()
		c, err := Dial(udpAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const n = 40
		var want []string
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("scan:%03d", i)
			want = append(want, k)
			if err := c.Set([]byte(k), []byte("v-"+k)); err != nil {
				t.Fatalf("SET %s: %v", k, err)
			}
		}

		check := func(entries []ScanEntry, wantKeys []string) {
			t.Helper()
			if len(entries) != len(wantKeys) {
				t.Fatalf("got %d entries, want %d", len(entries), len(wantKeys))
			}
			for i, e := range entries {
				if string(e.Key) != wantKeys[i] {
					t.Fatalf("entry %d key %q, want %q", i, e.Key, wantKeys[i])
				}
				if wantV := "v-" + wantKeys[i]; string(e.Value) != wantV {
					t.Fatalf("entry %d value %q, want %q", i, e.Value, wantV)
				}
			}
		}

		// Full range, one shot.
		entries, err := c.Scan([]byte("scan:"), []byte("scan;"), 0)
		if err != nil {
			t.Fatal(err)
		}
		check(entries, want)

		// Bounded sub-range [scan:010, scan:020).
		entries, err = c.Scan([]byte("scan:010"), []byte("scan:020"), 0)
		if err != nil {
			t.Fatal(err)
		}
		check(entries, want[10:20])

		// Cursor pagination with limit 7: pages concatenate to the full range.
		var paged []ScanEntry
		cursor := []byte("scan:")
		for {
			page, err := c.Scan(cursor, []byte("scan;"), 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) == 0 {
				break
			}
			if len(page) > 7 {
				t.Fatalf("page of %d entries exceeds limit 7", len(page))
			}
			paged = append(paged, page...)
			cursor = append(append([]byte(nil), page[len(page)-1].Key...), 0)
		}
		check(paged, want)

		// RESP answers the same scans with the same contents.
		rc, err := frontend.DialRESP(respAddr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		rentries, err := rc.Scan([]byte("scan:"), []byte("scan;"), 0)
		if err != nil {
			t.Fatal(err)
		}
		check(rentries, want)
		rpage, err := rc.Scan([]byte("scan:010"), []byte("scan:020"), 5)
		if err != nil {
			t.Fatal(err)
		}
		check(rpage, want[10:15])
		srv.Close()
		waitServe(t, udpErrc)
		waitServe(t, respErrc)
	})
}

// TestServeScanUnordered pins the rejection path: a store built without the
// ordered index answers SCAN with StatusError on both front ends without
// disturbing point ops.
func TestServeScanUnordered(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
		srv := NewServerOpts(st, ServerOptions{Pipeline: po})
		udpAddr, udpErrc := startServer(t, srv)
		respAddr, respErrc := startRESP(t, srv)
		defer srv.Close()

		c, err := Dial(udpAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Set([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scan(nil, nil, 0); err == nil {
			t.Fatal("SCAN on an unordered store succeeded")
		}
		// Point ops keep working around the rejected scan.
		if v, ok, err := c.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
			t.Fatalf("GET after rejected SCAN = %q %v %v", v, ok, err)
		}

		rc, err := frontend.DialRESP(respAddr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		if _, err := rc.Scan(nil, nil, 0); err == nil {
			t.Fatal("RESP SCAN on an unordered store succeeded")
		}
		srv.Close()
		waitServe(t, udpErrc)
		waitServe(t, respErrc)
	})
}

// TestServeScanRESPErrors pins the RESP-level argument validation: wrong
// arity and non-integer limits answer in-band errors without breaking the
// connection's reply stream.
func TestServeScanRESPErrors(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20, Ordered: true})
	srv := NewServerOpts(st, ServerOptions{})
	respAddr, errc := startRESP(t, srv)
	defer srv.Close()

	// Command-level errors (rcErr) reply in-band and then close the
	// connection, like any other malformed command — one dial per probe.
	for _, args := range [][][]byte{
		{[]byte("SCAN"), []byte("a")},                                // wrong arity
		{[]byte("SCAN"), []byte("a"), []byte("b"), []byte("bogus")},  // non-integer limit
		{[]byte("SCAN"), []byte("a"), []byte("b"), []byte("-3")},     // negative limit
		{[]byte("SCAN"), []byte("a"), []byte("b"), []byte("1"), nil}, // too many args
	} {
		rc, err := frontend.DialRESP(respAddr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := rc.Cmd(args...); err != nil {
			t.Fatalf("%q: %v", args[0], err)
		} else if v.Type() != '-' {
			t.Fatalf("SCAN with args %q: reply type %q, want error", args[1:], v.Type())
		}
		rc.Close()
	}
	// A well-formed SCAN on a fresh connection still serves.
	rc, err := frontend.DialRESP(respAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Scan(nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := rc.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestScanChaosEquivalence mixes SCAN into the drop/dup/reorder injector
// workload (the SCAN arm of TestMultiQueueChaosEquivalence): under datagram
// loss, duplication and reordering — with churn writers running — every
// scan reply must be sorted, duplicate-free and
// value-correct, duplicate SCAN retries are answered from the reply cache
// without re-execution mattering (scans are read-only, so replay is
// invisible; the pin is that retried pages stay coherent), and cursor
// pagination over a stable key region reassembles that region exactly.
func TestScanChaosEquivalence(t *testing.T) {
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		st := NewStore(StoreConfig{MemoryBytes: 16 << 20, Ordered: true})
		var injector *faults.Conn
		srv := NewServerOpts(st, ServerOptions{
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

		// Stable region: loaded before the chaos, never written again, so
		// every scan of it — whatever the interleaving — must return it
		// exactly.
		const stable = 64
		var stableKeys []string
		{
			c, err := DialOpts(addr, ClientOptions{
				Timeout: 50 * time.Millisecond, Retries: 30,
				Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < stable; i++ {
				k := fmt.Sprintf("scan:%03d", i)
				stableKeys = append(stableKeys, k)
				if err := c.Set([]byte(k), []byte("sv-"+k)); err != nil {
					t.Fatalf("warm %s: %v", k, err)
				}
			}
			c.Close()
		}

		const clients = 4
		const rounds = 10
		var wg sync.WaitGroup
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c, err := DialOpts(addr, ClientOptions{
					Timeout:    50 * time.Millisecond,
					Retries:    30,
					Backoff:    2 * time.Millisecond,
					MaxBackoff: 20 * time.Millisecond,
					Seed:       int64(ci + 1),
				})
				if err != nil {
					t.Errorf("client %d dial: %v", ci, err)
					return
				}
				defer c.Close()
				for r := 0; r < rounds; r++ {
					// Churn: write and delete keys in a separate region
					// while other clients scan.
					for i := 0; i < 4; i++ {
						k := fmt.Sprintf("churn:%d:%d", ci, i)
						if err := c.Set([]byte(k), []byte("cv:"+k)); err != nil {
							t.Errorf("client %d churn SET: %v", ci, err)
							return
						}
					}
					if r%2 == 1 {
						if _, err := c.Delete([]byte(fmt.Sprintf("churn:%d:%d", ci, r%4))); err != nil {
							t.Errorf("client %d churn DEL: %v", ci, err)
							return
						}
					}

					// Full stable-region scan: exact contents, every time.
					entries, err := c.Scan([]byte("scan:"), []byte("scan;"), 0)
					if err != nil {
						t.Errorf("client %d round %d SCAN: %v", ci, r, err)
						return
					}
					if len(entries) != stable {
						t.Errorf("client %d round %d: scan saw %d stable keys, want %d", ci, r, len(entries), stable)
						return
					}
					for i, e := range entries {
						if string(e.Key) != stableKeys[i] || string(e.Value) != "sv-"+stableKeys[i] {
							t.Errorf("client %d round %d entry %d = %q=%q, want %q", ci, r, i, e.Key, e.Value, stableKeys[i])
							return
						}
					}

					// Paginated stable-region scan: pages (each its own
					// retryable request through the chaos) reassemble the
					// region exactly — the cursor is stable across retries.
					var paged [][]byte
					cursor := []byte("scan:")
					for {
						page, err := c.Scan(cursor, []byte("scan;"), 7)
						if err != nil {
							t.Errorf("client %d round %d page: %v", ci, r, err)
							return
						}
						if len(page) == 0 {
							break
						}
						for _, e := range page {
							paged = append(paged, append([]byte(nil), e.Key...))
						}
						cursor = append(append([]byte(nil), page[len(page)-1].Key...), 0)
					}
					if len(paged) != stable {
						t.Errorf("client %d round %d: pagination yielded %d keys, want %d", ci, r, len(paged), stable)
						return
					}
					for i, k := range paged {
						if string(k) != stableKeys[i] {
							t.Errorf("client %d round %d: page key %d = %q, want %q", ci, r, i, k, stableKeys[i])
							return
						}
					}

					// Several SCANs in one frame reach the store as one
					// batch of ranges: the stable region in parts, one of
					// them empty, reassembles the region exactly.
					bounds := []string{"scan:", "scan:016", "scan:016", "scan:040", "scan;"}
					var qs []proto.Query
					for i := 0; i+1 < len(bounds); i++ {
						qs = append(qs, proto.ScanQuery([]byte(bounds[i]), []byte(bounds[i+1]), 0))
					}
					resps, err := c.Do(qs)
					if err != nil {
						t.Errorf("client %d round %d multi-SCAN: %v", ci, r, err)
						return
					}
					var parts []ScanEntry
					for i, resp := range resps {
						part, err := proto.ParseScanResult(resp.Value)
						if resp.Status != proto.StatusOK || err != nil {
							t.Errorf("client %d round %d multi-SCAN part %d: status %v, %v", ci, r, i, resp.Status, err)
							return
						}
						parts = append(parts, part...)
					}
					if len(parts) != stable {
						t.Errorf("client %d round %d: multi-SCAN saw %d stable keys, want %d", ci, r, len(parts), stable)
						return
					}
					for i, e := range parts {
						if string(e.Key) != stableKeys[i] || string(e.Value) != "sv-"+stableKeys[i] {
							t.Errorf("client %d round %d multi-SCAN entry %d = %q=%q, want %q", ci, r, i, e.Key, e.Value, stableKeys[i])
							return
						}
					}

					// Churn-region scan: contents race with writers, so only
					// the structure is pinned — sorted, duplicate-free, and
					// every value matches its key.
					churn, err := c.Scan([]byte("churn:"), []byte("churn;"), 0)
					if err != nil {
						t.Errorf("client %d round %d churn SCAN: %v", ci, r, err)
						return
					}
					if !sort.SliceIsSorted(churn, func(a, b int) bool {
						return bytes.Compare(churn[a].Key, churn[b].Key) < 0
					}) {
						t.Errorf("client %d round %d: churn scan unsorted", ci, r)
						return
					}
					for i, e := range churn {
						if i > 0 && bytes.Equal(churn[i-1].Key, e.Key) {
							t.Errorf("client %d round %d: duplicate churn key %q", ci, r, e.Key)
							return
						}
						if want := "cv:" + string(e.Key); string(e.Value) != want {
							t.Errorf("client %d round %d: churn %q=%q, want %q", ci, r, e.Key, e.Value, want)
							return
						}
					}
				}
			}(ci)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		fs := injector.Stats()
		if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
			t.Fatalf("injector idle: %+v", fs)
		}
		ss := srv.Stats()
		t.Logf("scan chaos: faults=%+v server=%+v store-scans=%d", fs, ss, st.Stats().Scans)
		srv.Close()
		waitServe(t, errc)
	})
}
