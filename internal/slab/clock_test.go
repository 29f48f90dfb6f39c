package slab

import (
	"container/list"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
	"repro/internal/zipf"
)

// oneClassConfig is a single-class arena of exactly chunks chunks of chunk
// bytes, all in one slab.
func oneClassConfig(chunks, chunk int) Config {
	return Config{
		TotalBytes: int64(chunks * chunk), SlabBytes: chunks * chunk,
		MinChunk: chunk, MaxChunk: chunk, Growth: 2,
	}
}

// fill allocates n objects key-00.. into a, returning their handles, which are
// chunk indices 0..n-1 in order.
func fill(t *testing.T, a *Allocator, n int) []Handle {
	t.Helper()
	var hs []Handle
	for i := 0; i < n; i++ {
		h, ev, err := a.Alloc([]byte(fmt.Sprintf("key-%02d", i)), []byte("v"), 1)
		if err != nil || ev != nil {
			t.Fatalf("fill %d: ev=%v err=%v", i, ev, err)
		}
		if _, idx := h.split(); idx != uint64(i) {
			t.Fatalf("fill %d landed in chunk %d", i, idx)
		}
		hs = append(hs, h)
	}
	return hs
}

// TestClockSecondChance: a touched object survives one pass of the hand and
// no more; untouched objects are evicted in hand (chunk index) order, and the
// victim's chunk is reused for the new object.
func TestClockSecondChance(t *testing.T) {
	a := NewAllocator(oneClassConfig(32, 128))
	hs := fill(t, a, 32)
	for i := 0; i < 32; i += 2 {
		a.Touch(hs[i], 2)
	}
	for i := 1; i < 32; i += 2 {
		h, ev, err := a.Alloc([]byte(fmt.Sprintf("new-%02d", i)), []byte("w"), 2)
		if err != nil || ev == nil {
			t.Fatalf("alloc %d: ev=%v err=%v, want an eviction", i, ev, err)
		}
		if want := fmt.Sprintf("key-%02d", i); string(ev.Key) != want || ev.Handle != hs[i] || h != hs[i] {
			t.Fatalf("alloc %d evicted %q at %v into %v, want %s at %v", i, ev.Key, ev.Handle, h, want, hs[i])
		}
	}
	for i := 0; i < 32; i += 2 {
		if !a.MatchKey(hs[i], []byte(fmt.Sprintf("key-%02d", i))) {
			t.Fatalf("touched key-%02d did not survive the first pass", i)
		}
	}
	if st := a.StatsSnapshot(); st.Evictions != 16 || st.EvictScan != 32 || st.LiveObjects != 32 {
		t.Fatalf("after one revolution: %+v, want 16 evictions over 32 examined", st)
	}
	// The hand has wrapped: key-00's second chance is spent.
	_, ev, err := a.Alloc([]byte("late"), []byte("w"), 3)
	if err != nil || ev == nil || string(ev.Key) != "key-00" {
		t.Fatalf("second pass evicted %v (err %v), want key-00", ev, err)
	}
}

// TestClockAllReferenced: with every object referenced the hand clears a full
// revolution and then evicts where it started. Alloc never reports
// ErrNoMemory while the class holds a live object, even when every object is
// re-referenced as fast as the hand clears it.
func TestClockAllReferenced(t *testing.T) {
	a := NewAllocator(oneClassConfig(32, 128))
	hs := fill(t, a, 32)
	for _, h := range hs {
		a.Touch(h, 2)
	}
	_, ev, err := a.Alloc([]byte("new"), []byte("w"), 2)
	if err != nil || ev == nil || ev.Handle != hs[0] {
		t.Fatalf("evicted %v (err %v), want chunk 0 after a full revolution", ev, err)
	}
	if st := a.StatsSnapshot(); st.EvictScan != 33 {
		t.Fatalf("hand examined %d chunks, want 32 cleared + 1 victim", st.EvictScan)
	}

	// A one-chunk class whose object is referenced still yields it.
	one := NewAllocator(oneClassConfig(1, 128))
	h := fill(t, one, 1)[0]
	one.Touch(h, 2)
	if _, ev, err := one.Alloc([]byte("x"), nil, 2); err != nil || ev == nil {
		t.Fatalf("one-chunk class: ev=%v err=%v", ev, err)
	}

	// Re-reference every chunk concurrently with the hand.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, h := range hs {
				a.Touch(h, 2)
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, _, err := a.Alloc([]byte(fmt.Sprintf("churn-%d", i)), []byte("w"), 2); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("alloc %d with a live class: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := a.StatsSnapshot(); st.EvictScan > st.Evictions*(2*32+1) {
		t.Fatalf("hand walk unbounded: %+v", st)
	}
}

// TestClockFreeListBeforeEviction: free chunks are reused before the hand
// moves, and a freed chunk is never reported as a victim.
func TestClockFreeListBeforeEviction(t *testing.T) {
	a := NewAllocator(oneClassConfig(32, 128))
	hs := fill(t, a, 32)
	a.Free(hs[0]) // where the hand starts
	a.Free(hs[9])
	for _, want := range []Handle{hs[9], hs[0]} {
		h, ev, err := a.Alloc([]byte("reuse"), []byte("w"), 2)
		if err != nil || ev != nil || h != want {
			t.Fatalf("alloc got %v ev=%v err=%v, want free chunk %v", h, ev, err, want)
		}
	}
	if st := a.StatsSnapshot(); st.EvictScan != 0 || st.Evictions != 0 {
		t.Fatalf("free list served, yet the hand moved: %+v", st)
	}
	a.Free(hs[1])
	a.Free(hs[2])
	for i := 0; i < 40; i++ {
		_, ev, err := a.Alloc([]byte(fmt.Sprintf("more-%d", i)), []byte("w"), 2)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && ev != nil {
			t.Fatalf("alloc %d evicted %q with a free chunk available", i, ev.Key)
		}
		if i >= 2 && (ev == nil || string(ev.Key) == "key-01" || string(ev.Key) == "key-02") {
			t.Fatalf("alloc %d: victim %v, want a live object", i, ev)
		}
	}
}

// TestClassPinsForDatasets pins the default class of every dataset shape the
// benchmarks and the simulator use: growing the header must not move any of
// them into a bigger class.
func TestClassPinsForDatasets(t *testing.T) {
	a := NewAllocator(DefaultConfig(64 << 20))
	for _, tc := range []struct {
		name  string
		ds    [2]int
		chunk int
	}{
		{"K8", workload.DatasetK8, 64},
		{"K16", workload.DatasetK16, 128},
		{"K32", workload.DatasetK32, 512},
		{"K32Fig4", workload.DatasetK32Fig4, 1024},
		{"K128", workload.DatasetK128, 2048},
	} {
		ci, err := a.classFor(headerBytes + tc.ds[0] + tc.ds[1])
		if err != nil || a.ChunkSize(ci) != tc.chunk {
			t.Errorf("%s (%d+%d+%d B): class chunk %d err %v, want %d",
				tc.name, headerBytes, tc.ds[0], tc.ds[1], a.ChunkSize(ci), err, tc.chunk)
		}
	}
}

// lruOracle is an exact LRU cache of capacity objects, the reference CLOCK's
// hit ratio is held against.
type lruOracle struct {
	capacity int
	order    *list.List // front: most recent
	at       map[uint64]*list.Element
}

func (l *lruOracle) access(k uint64) bool {
	if e, ok := l.at[k]; ok {
		l.order.MoveToFront(e)
		return true
	}
	if l.order.Len() == l.capacity {
		delete(l.at, l.order.Remove(l.order.Back()).(uint64))
	}
	l.at[k] = l.order.PushFront(k)
	return false
}

// TestHitRatioVsExactLRU: on seeded uniform and Zipf-0.99 traces over a key
// space about six times the class, CLOCK hits at least as often as exact LRU
// less 0.01.
func TestHitRatioVsExactLRU(t *testing.T) {
	const chunks, keys, ops, seed = 4096, 25000, 200000, 7
	for _, s := range []float64{0, 0.99} {
		a := NewAllocator(oneClassConfig(chunks, 64))
		lru := &lruOracle{capacity: chunks, order: list.New(), at: map[uint64]*list.Element{}}
		where := map[string]Handle{}
		g := zipf.NewGenerator(keys, s, seed)
		var clockHits, lruHits int
		for i := 0; i < ops; i++ {
			k := g.Next()
			key := []byte(fmt.Sprintf("k%07d", k))
			if lru.access(k) {
				lruHits++
			}
			if h, ok := where[string(key)]; ok && a.MatchKey(h, key) {
				clockHits++
				a.Touch(h, 1)
				continue
			}
			h, ev, err := a.Alloc(key, []byte("v"), 1)
			if err != nil {
				t.Fatal(err)
			}
			if ev != nil {
				delete(where, string(ev.Key))
			}
			where[string(key)] = h
		}
		clock, exact := float64(clockHits)/ops, float64(lruHits)/ops
		t.Logf("zipf s=%.2f seed=%d: CLOCK %.4f, exact LRU %.4f", s, seed, clock, exact)
		if clock < exact-0.01 {
			t.Errorf("zipf s=%.2f seed=%d: CLOCK hit ratio %.4f below exact LRU %.4f - 0.01", s, seed, clock, exact)
		}
	}
}

// TestClockConcurrencyHammer runs Alloc, Touch, AccessCount and FreeIfMatch
// from several goroutines over one small class, then checks the allocator
// against the chunks themselves: the live count equals the even-version
// chunks, AccessCount answers for exactly the live ones, and every live
// chunk's key is where its owner last put it (a key is readable iff its chunk
// is live).
func TestClockConcurrencyHammer(t *testing.T) {
	const workers, keysPer, ops, seed = 4, 48, 4000, 11
	const chunks = 64
	a := NewAllocator(oneClassConfig(chunks, 128))
	owners := make([]map[string]Handle, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		owners[w] = map[string]Handle{}
		wg.Add(2)
		go func(w int) { // owner: SET / DEL / GET of its own keys
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			mine := owners[w]
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%d-k%02d", w, rng.Intn(keysPer))
				h, had := mine[key]
				switch r := rng.Intn(10); {
				case r < 4 && had:
					a.Touch(h, uint32(i/100))
				case r < 8:
					if had {
						a.FreeIfMatch(h, []byte(key))
					}
					nh, _, err := a.Alloc([]byte(key), []byte(key), uint32(i/100))
					if err != nil {
						t.Errorf("seed %d: alloc: %v", seed, err)
						return
					}
					mine[key] = nh
				case had:
					a.FreeIfMatch(h, []byte(key))
					delete(mine, key)
				}
			}
		}(w)
		go func(w int) { // stranger: touches and samples arbitrary chunks
			defer wg.Done()
			rng := rand.New(rand.NewSource(-seed - int64(w)))
			for i := 0; i < ops; i++ {
				h := makeHandle(0, uint64(rng.Intn(chunks)))
				a.Touch(h, uint32(i/100))
				if n, _, ok := a.AccessCount(h); ok && n == 0 {
					t.Errorf("seed %d: AccessCount reported a never-written chunk", seed)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	c := a.classes[0]
	var even int
	for idx := uint64(0); idx < chunks; idx++ {
		h := makeHandle(0, idx)
		live := c.lockedWords(idx)[0].Load()&1 == 0
		if live {
			even++
		}
		if _, _, ok := a.AccessCount(h); ok != live {
			t.Errorf("seed %d: chunk %d live=%v but AccessCount ok=%v", seed, idx, live, ok)
		}
		if k, _, ok := a.Object(h); ok != live {
			t.Errorf("seed %d: chunk %d live=%v but Object ok=%v", seed, idx, live, ok)
		} else if ok {
			var w int
			fmt.Sscanf(string(k), "w%d-", &w)
			if owners[w][string(k)] != h {
				t.Errorf("seed %d: live chunk %d holds %q, its owner has it at %v", seed, idx, k, owners[w][string(k)])
			}
		}
	}
	var located int
	for _, mine := range owners {
		for key, h := range mine {
			if a.MatchKey(h, []byte(key)) {
				located++
			}
		}
	}
	st := a.StatsSnapshot()
	if st.LiveObjects != even || located != even {
		t.Fatalf("seed %d: LiveObjects %d, owners locate %d keys, %d chunks have even versions",
			seed, st.LiveObjects, located, even)
	}
	if st.EvictScan < st.Evictions {
		t.Fatalf("seed %d: %d evictions from %d examined chunks", seed, st.Evictions, st.EvictScan)
	}
}

var sinkCount uint32

// BenchmarkTouch measures a GET hit's bookkeeping: uniform over 1 Mi live
// chunks (the header line is usually a cache miss), and one hot key touched
// from every P (every Touch contends for one header line).
func BenchmarkTouch(b *testing.B) {
	const n = 1 << 20
	a := NewAllocator(DefaultConfig(n * 64))
	hs := make([]Handle, n)
	var key [8]byte
	for i := range hs {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		h, _, err := a.Alloc(key[:], key[:], 1)
		if err != nil {
			b.Fatal(err)
		}
		hs[i] = h
	}
	b.Run("uniform-1Mi", func(b *testing.B) {
		x := uint64(88172645463325252)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a.Touch(hs[x&(n-1)], 1)
		}
		sinkCount, _, _ = a.AccessCount(hs[0])
	})
	b.Run("hot-key-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				a.Touch(hs[0], 1)
			}
		})
		sinkCount, _, _ = a.AccessCount(hs[0])
	})
}
