package slab

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{
		TotalBytes: 64 << 10, // one 64KB slab budget
		SlabBytes:  32 << 10,
		MinChunk:   64,
		MaxChunk:   1024,
		Growth:     2.0,
	}
}

func TestNewAllocatorValidation(t *testing.T) {
	bad := []Config{
		{},
		{TotalBytes: 1 << 20, SlabBytes: 1 << 20, MinChunk: 4, MaxChunk: 1024, Growth: 2},  // MinChunk <= header
		{TotalBytes: 1 << 20, SlabBytes: 1 << 20, MinChunk: 128, MaxChunk: 64, Growth: 2},  // bounds reversed
		{TotalBytes: 1 << 20, SlabBytes: 1 << 20, MinChunk: 64, MaxChunk: 1024, Growth: 1}, // growth <= 1
		{TotalBytes: 1 << 20, SlabBytes: 512, MinChunk: 64, MaxChunk: 1024, Growth: 2},     // slab < max chunk
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic: %+v", i, cfg)
				}
			}()
			NewAllocator(cfg)
		}()
	}
}

func TestClassLayout(t *testing.T) {
	a := NewAllocator(smallConfig())
	if a.Classes() < 4 {
		t.Fatalf("classes = %d, want >= 4 (64..1024 at x2)", a.Classes())
	}
	if a.ChunkSize(0) != 64 {
		t.Fatalf("first class = %d", a.ChunkSize(0))
	}
	if a.ChunkSize(a.Classes()-1) != 1024 {
		t.Fatalf("last class = %d", a.ChunkSize(a.Classes()-1))
	}
	for i := 1; i < a.Classes(); i++ {
		if a.ChunkSize(i) <= a.ChunkSize(i-1) {
			t.Fatal("class sizes not increasing")
		}
	}
}

func TestAllocObjectRoundTrip(t *testing.T) {
	a := NewAllocator(smallConfig())
	key := []byte("hello")
	val := []byte("world-value")
	h, ev, err := a.Alloc(key, val, 1)
	if err != nil || ev != nil {
		t.Fatalf("alloc: h=%v ev=%v err=%v", h, ev, err)
	}
	if h == NoHandle {
		t.Fatal("zero handle returned")
	}
	k, v, ok := a.Object(h)
	if !ok || !bytes.Equal(k, key) || !bytes.Equal(v, val) {
		t.Fatalf("object = %q/%q ok=%v", k, v, ok)
	}
}

func TestObjectDeadHandle(t *testing.T) {
	a := NewAllocator(smallConfig())
	if _, _, ok := a.Object(NoHandle); ok {
		t.Fatal("NoHandle should not resolve")
	}
	if _, _, ok := a.Object(Handle(1)); ok {
		t.Fatal("never-allocated handle should not resolve")
	}
	h, _, _ := a.Alloc([]byte("k"), []byte("v"), 1)
	a.Free(h)
	if _, _, ok := a.Object(h); ok {
		t.Fatal("freed handle should not resolve")
	}
	a.Free(h) // double free is a no-op
}

func TestTooLarge(t *testing.T) {
	a := NewAllocator(smallConfig())
	_, _, err := a.Alloc(make([]byte, 10), make([]byte, 2000), 1)
	if err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestFreeThenReuseNoEviction(t *testing.T) {
	cfg := Config{TotalBytes: 32 << 10, SlabBytes: 32 << 10, MinChunk: 1024, MaxChunk: 1024, Growth: 2}
	a := NewAllocator(cfg)
	var handles []Handle
	for i := 0; i < 32; i++ {
		h, _, _ := a.Alloc([]byte{byte(i)}, nil, 1)
		handles = append(handles, h)
	}
	a.Free(handles[7])
	_, ev, err := a.Alloc([]byte("x"), nil, 1)
	if err != nil || ev != nil {
		t.Fatalf("free list should satisfy alloc: ev=%v err=%v", ev, err)
	}
}

// TestFreeIfMatchSparesARecycledChunk: a handle looked up before an eviction
// recycled its chunk names somebody else's live object by the time it is
// freed; FreeIfMatch must leave that object alone, and free its own.
func TestFreeIfMatchSparesARecycledChunk(t *testing.T) {
	cfg := Config{TotalBytes: 1024, SlabBytes: 1024, MinChunk: 1024, MaxChunk: 1024, Growth: 2}
	a := NewAllocator(cfg) // one chunk: the second Alloc evicts the first
	stale, _, _ := a.Alloc([]byte("old"), []byte("v"), 1)
	h, ev, err := a.Alloc([]byte("new"), []byte("w"), 1)
	if err != nil || ev == nil || h != stale {
		t.Fatalf("second alloc: h=%v ev=%v err=%v, want the first chunk recycled", h, ev, err)
	}
	a.FreeIfMatch(stale, []byte("old"))
	if !a.MatchKey(h, []byte("new")) {
		t.Fatal("FreeIfMatch with the evicted key killed the chunk's new object")
	}
	a.FreeIfMatch(h, []byte("new"))
	if a.MatchKey(h, []byte("new")) || a.StatsSnapshot().LiveObjects != 0 {
		t.Fatal("FreeIfMatch with the resident key freed nothing")
	}
}

func TestTouchAccessCounterSampling(t *testing.T) {
	a := NewAllocator(smallConfig())
	h, _, _ := a.Alloc([]byte("k"), []byte("v"), 10)
	if n, stamp, ok := a.AccessCount(h); !ok || n != 1 || stamp != 10 {
		t.Fatalf("initial count = %d stamp=%d ok=%v", n, stamp, ok)
	}
	a.Touch(h, 10)
	a.Touch(h, 10)
	if n, _, _ := a.AccessCount(h); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	// New sampling interval resets the counter (paper §IV-B).
	a.Touch(h, 11)
	if n, stamp, _ := a.AccessCount(h); n != 1 || stamp != 11 {
		t.Fatalf("after new interval: count=%d stamp=%d, want 1/11", n, stamp)
	}
	// Dead handles.
	if _, _, ok := a.AccessCount(NoHandle); ok {
		t.Fatal("NoHandle AccessCount should fail")
	}
	a.Touch(NoHandle, 1) // no-op, must not panic
}

func TestMultipleClassesIndependentEviction(t *testing.T) {
	cfg := Config{TotalBytes: 64 << 10, SlabBytes: 32 << 10, MinChunk: 256, MaxChunk: 1024, Growth: 4}
	a := NewAllocator(cfg) // classes: 256, 1024
	// The big class takes the first slab...
	if _, ev, err := a.Alloc([]byte("b0"), make([]byte, 900), 1); err != nil || ev != nil {
		t.Fatalf("big alloc: ev=%v err=%v", ev, err)
	}
	// ...and the small class takes the second (128 chunks), exhausting the budget.
	for i := 0; i < 128; i++ {
		if _, ev, err := a.Alloc([]byte{byte(i), byte(i >> 8)}, make([]byte, 100), 1); err != nil || ev != nil {
			t.Fatalf("small alloc %d: ev=%v err=%v", i, ev, err)
		}
	}
	// Next small alloc must evict from the small class only.
	_, ev, err := a.Alloc([]byte("s"), make([]byte, 100), 1)
	if err != nil || ev == nil {
		t.Fatalf("expected small-class eviction, ev=%v err=%v", ev, err)
	}
	// Big class still has free chunks in its own slab: no eviction.
	_, ev2, err := a.Alloc([]byte("b1"), make([]byte, 900), 1)
	if err != nil || ev2 != nil {
		t.Fatalf("big alloc should not evict: ev=%v err=%v", ev2, err)
	}
}

// TestRangeKeysMatchesRange: RangeKeys yields exactly the keys Range does,
// in the same order — live objects of every class, freed ones skipped.
func TestRangeKeysMatchesRange(t *testing.T) {
	a := NewAllocator(Config{TotalBytes: 1 << 20, SlabBytes: 32 << 10, MinChunk: 64, MaxChunk: 1024, Growth: 2})
	var hs []Handle
	for i := 0; i < 300; i++ {
		h, _, err := a.Alloc([]byte(fmt.Sprintf("rk-%03d", i)), bytes.Repeat([]byte{'v'}, i%200), 1)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i := 0; i < len(hs); i += 3 {
		a.Free(hs[i])
	}
	var want, got []string
	a.Range(func(k, _ []byte) bool { want = append(want, string(k)); return true })
	a.RangeKeys(func(k []byte) bool { got = append(got, string(k)); return true })
	if len(want) != 200 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RangeKeys saw %d keys, Range %d (want 200), or in another order", len(got), len(want))
	}
	n := 0
	if a.RangeKeys(func([]byte) bool { n++; return n < 5 }) || n != 5 {
		t.Fatalf("RangeKeys went on after fn returned false: %d calls", n)
	}
}

func TestStatsSnapshot(t *testing.T) {
	a := NewAllocator(smallConfig())
	a.Alloc([]byte("k"), []byte("v"), 1)
	st := a.StatsSnapshot()
	if st.LiveObjects != 1 || st.AllocatedBytes == 0 || st.ArenaBytes != 64<<10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHandleSplitRoundTrip(t *testing.T) {
	f := func(class uint8, idx uint32) bool {
		h := makeHandle(int(class), uint64(idx))
		c, i := h.split()
		return c == int(class) && i == uint64(idx) && h != NoHandle
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFreeTouch(t *testing.T) {
	cfg := Config{TotalBytes: 1 << 20, SlabBytes: 64 << 10, MinChunk: 128, MaxChunk: 512, Growth: 2}
	a := NewAllocator(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []Handle
			for i := 0; i < 500; i++ {
				key := []byte(fmt.Sprintf("w%d-%d", w, i))
				h, _, err := a.Alloc(key, make([]byte, 64), uint32(i))
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				mine = append(mine, h)
				a.Touch(h, uint32(i))
				if i%3 == 0 {
					a.Free(mine[len(mine)/2])
				}
			}
		}()
	}
	wg.Wait()
	st := a.StatsSnapshot()
	if st.LiveObjects < 0 {
		t.Fatalf("negative live objects: %+v", st)
	}
}

func TestEvictionChurnProperty(t *testing.T) {
	// Property: under arbitrary alloc sequences the allocator never exceeds
	// its arena budget and every returned handle resolves until evicted/freed.
	f := func(sizes []uint16) bool {
		cfg := Config{TotalBytes: 64 << 10, SlabBytes: 16 << 10, MinChunk: 64, MaxChunk: 4096, Growth: 2}
		a := NewAllocator(cfg)
		for i, s := range sizes {
			val := make([]byte, int(s)%3000)
			key := []byte(fmt.Sprintf("key-%d", i))
			h, _, err := a.Alloc(key, val, 1)
			if err == ErrTooLarge || err == ErrNoMemory {
				// ErrNoMemory is legal: a class can be budget-starved before
				// it owns any slab to evict from.
				continue
			}
			if err != nil {
				return false
			}
			k, v, ok := a.Object(h)
			if !ok || !bytes.Equal(k, key) || len(v) != len(val) {
				return false
			}
			if st := a.StatsSnapshot(); st.AllocatedBytes > st.ArenaBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestObjectBytesAtEveryWordOffset round-trips key and value bytes through
// every read path for every key length 1..17 and value length 0..41, so the
// value starts, and key and value end, at every offset within a word. Every
// byte depends on its position, and all objects are written before any is
// read, so a byte misplaced or dropped, or a write into a neighbouring
// chunk, shows.
func TestObjectBytesAtEveryWordOffset(t *testing.T) {
	a := NewAllocator(DefaultConfig(8 << 20))
	type obj struct {
		h          Handle
		key, value []byte
	}
	var objs []obj
	for kl := 1; kl <= 17; kl++ {
		for vl := 0; vl <= 41; vl++ {
			o := obj{key: make([]byte, kl), value: make([]byte, vl)}
			for i := range o.key {
				o.key[i] = byte(vl*17 + kl*5 + i*3 + 1)
			}
			for i := range o.value {
				o.value[i] = byte(kl*29 + vl*7 + i*13 + 2)
			}
			h, ev, err := a.Alloc(o.key, o.value, 1)
			if err != nil || ev != nil {
				t.Fatalf("K%d/V%d: alloc err=%v evicted=%v", kl, vl, err, ev)
			}
			o.h = h
			objs = append(objs, o)
		}
	}
	for _, o := range objs {
		name := fmt.Sprintf("K%d/V%d", len(o.key), len(o.value))
		if k, v, ok := a.Object(o.h); !ok || !bytes.Equal(k, o.key) || !bytes.Equal(v, o.value) {
			t.Fatalf("%s: Object = %x/%x ok=%v, want %x/%x", name, k, v, ok, o.key, o.value)
		}
		if v, ok := a.ReadInto(o.h, []byte("pre")); !ok || string(v[:3]) != "pre" || !bytes.Equal(v[3:], o.value) {
			t.Fatalf("%s: ReadInto = %x ok=%v, want pre+%x", name, v, ok, o.value)
		}
		if v, ok := a.ReadIfMatch(o.h, o.key, nil); !ok || !bytes.Equal(v, o.value) {
			t.Fatalf("%s: ReadIfMatch = %x ok=%v, want %x", name, v, ok, o.value)
		}
		if !a.MatchKey(o.h, o.key) {
			t.Fatalf("%s: MatchKey missed its own key", name)
		}
		other := bytes.Clone(o.key)
		other[len(other)-1] ^= 0x80
		if a.MatchKey(o.h, other) {
			t.Fatalf("%s: MatchKey matched a key differing in its last byte", name)
		}
		if _, ok := a.ReadIfMatch(o.h, other, nil); ok {
			t.Fatalf("%s: ReadIfMatch hit a key differing in its last byte", name)
		}
	}
}

// BenchmarkAllocEvictCycle allocates into a full class, so every Alloc evicts
// a victim and writes the new object over it: K32/V256 is the shape of the
// serving benchmark's evicting SETs.
func BenchmarkAllocEvictCycle(b *testing.B) {
	for _, shape := range []struct{ key, value int }{{3, 64}, {32, 256}} {
		b.Run(fmt.Sprintf("K%d/V%d", shape.key, shape.value), func(b *testing.B) {
			cfg := Config{TotalBytes: 1 << 20, SlabBytes: 1 << 20, MinChunk: 128, MaxChunk: 128 << 2, Growth: 2}
			a := NewAllocator(cfg)
			key, val := make([]byte, shape.key), make([]byte, shape.value)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
				a.Alloc(key, val, uint32(i))
			}
		})
	}
}
