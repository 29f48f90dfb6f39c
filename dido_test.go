package dido

import (
	"fmt"
	"testing"
	"time"
)

func TestPublicStoreRoundTrip(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	if err := st.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok := st.Get([]byte("k"))
	if !ok || string(v) != "v" {
		t.Fatalf("get = %q/%v", v, ok)
	}
	if !st.Delete([]byte("k")) {
		t.Fatal("delete failed")
	}
	stats := st.Stats()
	if stats.Sets != 1 || stats.Gets != 1 || stats.Deletes != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestServerClientOverUDP(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv := NewServer(st)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve("127.0.0.1:0") }()
	// Wait for bind.
	var addr string
	for i := 0; i < 100; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server never bound")
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := c.Get([]byte("missing")); ok {
		t.Fatal("missing key returned ok")
	}
	existed, err := c.Delete([]byte("alpha"))
	if err != nil || !existed {
		t.Fatalf("delete = %v %v", existed, err)
	}
	if _, ok := st.Get([]byte("alpha")); ok {
		t.Fatal("DELETE alpha not applied")
	}
	existed, _ = c.Delete([]byte("alpha"))
	if existed {
		t.Fatal("double delete reported existing")
	}

	// Batched frame with mixed ops.
	var qs []Query
	for i := 0; i < 50; i++ {
		qs = append(qs, Query{Op: OpSet, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")})
	}
	for i := 0; i < 50; i++ {
		qs = append(qs, Query{Op: OpGet, Key: []byte(fmt.Sprintf("k%d", i))})
	}
	resps, err := c.Do(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status != StatusOK {
			t.Fatalf("response %d status %d", i, r.Status)
		}
	}
	// Read-only frame: every value written above, plus a miss.
	var gets []Query
	for i := 0; i < 50; i++ {
		gets = append(gets, Query{Op: OpGet, Key: []byte(fmt.Sprintf("k%d", i))})
	}
	gets = append(gets, Query{Op: OpGet, Key: []byte("missing")})
	resps, err = c.Do(gets)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if resps[i].Status != StatusOK || string(resps[i].Value) != "v" {
			t.Fatalf("GET k%d = %d %q, want OK \"v\"", i, resps[i].Status, resps[i].Value)
		}
	}
	if resps[50].Status != StatusNotFound {
		t.Fatalf("GET missing = %+v, want NotFound", resps[50])
	}
	if srv.Served() != 156 { // 5 single queries + 100 mixed + 51 reads
		t.Fatalf("served = %d", srv.Served())
	}
	if ps := srv.PipelineStats(); ps.Batches == 0 || ps.Queries == 0 {
		t.Fatalf("pipeline idle: %+v — frames did not go through the batched path", ps)
	}
	if ss := srv.Stats(); ss.Frames == 0 {
		t.Fatalf("frame counter idle: %+v", ss)
	}

	srv.Close()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not stop")
	}
}

func TestLargeBatchResponseSplitsAcrossDatagrams(t *testing.T) {
	// A batch of large values exceeds one UDP datagram; the server must split
	// the response frames and the client must aggregate them.
	st := NewStore(StoreConfig{MemoryBytes: 32 << 20})
	srv := NewServer(st)
	go srv.Serve("127.0.0.1:0")
	for srv.Addr() == nil {
		time.Sleep(2 * time.Millisecond)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	val := make([]byte, 10<<10) // 10KB values
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < 16; i++ {
		if err := c.Set([]byte(fmt.Sprintf("big:%02d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]Query, 16) // 16 x 10KB = 160KB of response data
	for i := range qs {
		qs[i] = Query{Op: OpGet, Key: []byte(fmt.Sprintf("big:%02d", i))}
	}
	resps, err := c.Do(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 16 {
		t.Fatalf("responses = %d, want 16", len(resps))
	}
	for i, r := range resps {
		if r.Status != StatusOK || len(r.Value) != len(val) {
			t.Fatalf("response %d: status=%d len=%d", i, r.Status, len(r.Value))
		}
		if r.Value[100] != val[100] {
			t.Fatalf("response %d corrupted", i)
		}
	}
}
