package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/slab"
)

func newTestStore() *Store {
	return New(Config{MemoryBytes: 4 << 20, IndexEntries: 10000, Seed: 42})
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero memory")
		}
	}()
	New(Config{})
}

func TestSetGetDelete(t *testing.T) {
	s := newTestStore()
	ins, dels, err := s.Set([]byte("alpha"), []byte("one"))
	if err != nil || ins != 1 || dels != 0 {
		t.Fatalf("set: ins=%d dels=%d err=%v", ins, dels, err)
	}
	v, ok := s.Get([]byte("alpha"))
	if !ok || string(v) != "one" {
		t.Fatalf("get = %q/%v", v, ok)
	}
	if _, ok := s.Get([]byte("beta")); ok {
		t.Fatal("missing key should miss")
	}
	if !s.Delete([]byte("alpha")) {
		t.Fatal("delete failed")
	}
	if s.Delete([]byte("alpha")) {
		t.Fatal("double delete should fail")
	}
	if _, ok := s.Get([]byte("alpha")); ok {
		t.Fatal("deleted key still readable")
	}
}

func TestOverwriteGeneratesDelete(t *testing.T) {
	s := newTestStore()
	s.Set([]byte("k"), []byte("v1"))
	ins, dels, err := s.Set([]byte("k"), []byte("v2-longer-value"))
	if err != nil || ins != 1 || dels != 1 {
		t.Fatalf("overwrite: ins=%d dels=%d err=%v", ins, dels, err)
	}
	v, ok := s.Get([]byte("k"))
	if !ok || string(v) != "v2-longer-value" {
		t.Fatalf("get after overwrite = %q", v)
	}
	st := s.StatsSnapshot()
	if st.LiveObjects != 1 {
		t.Fatalf("live objects = %d, want 1 (old object freed)", st.LiveObjects)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := newTestStore()
	s.Set([]byte("k"), []byte("value"))
	v, _ := s.Get([]byte("k"))
	v[0] = 'X'
	v2, _ := s.Get([]byte("k"))
	if string(v2) != "value" {
		t.Fatal("Get must return a copy")
	}
}

func TestEvictionCouplingInsertPlusDelete(t *testing.T) {
	// Small arena: one slab, single class. Filling it forces evictions, and
	// each evicting SET must report 1 insert + 1 delete (paper §II-C2).
	scfg := slab.Config{TotalBytes: 32 << 10, SlabBytes: 32 << 10, MinChunk: 512, MaxChunk: 512, Growth: 2}
	s := New(Config{MemoryBytes: 32 << 10, IndexEntries: 256, Seed: 1, Slab: &scfg})
	capacity := 64 // 32KB / 512B
	for i := 0; i < capacity; i++ {
		ins, dels, err := s.Set([]byte(fmt.Sprintf("key-%03d", i)), make([]byte, 300))
		if err != nil || ins != 1 || dels != 0 {
			t.Fatalf("warm set %d: ins=%d dels=%d err=%v", i, ins, dels, err)
		}
	}
	ins, dels, err := s.Set([]byte("overflow"), make([]byte, 300))
	if err != nil {
		t.Fatal(err)
	}
	if ins != 1 || dels != 1 {
		t.Fatalf("evicting SET: ins=%d dels=%d, want 1/1", ins, dels)
	}
	st := s.StatsSnapshot()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	// The evicted key (key-000, LRU) must be gone; the new key present.
	if _, ok := s.Get([]byte("key-000")); ok {
		t.Fatal("evicted key still readable")
	}
	if _, ok := s.Get([]byte("overflow")); !ok {
		t.Fatal("new key missing")
	}
}

func TestTaskGranularGetPath(t *testing.T) {
	// Drive a GET through the decomposed tasks exactly as a pipeline would:
	// IN(Search) → KC → RD.
	s := newTestStore()
	s.Set([]byte("pipeline-key"), []byte("pipeline-value"))
	cands := s.IndexSearch([]byte("pipeline-key"), nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	var found bool
	for _, loc := range cands {
		if s.KeyCompare(loc, []byte("pipeline-key")) {
			v, ok := s.ReadValueInto(loc, nil)
			if !ok || string(v) != "pipeline-value" {
				t.Fatalf("RD = %q/%v", v, ok)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("KC rejected the real object")
	}
}

func TestSampleIntervalCollection(t *testing.T) {
	s := newTestStore()
	for i := 0; i < 10; i++ {
		s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	// Touch k0 three times, k1 once.
	s.Get([]byte("k0"))
	s.Get([]byte("k0"))
	s.Get([]byte("k0"))
	s.Get([]byte("k1"))
	counts := s.AdvanceSampleInterval(0)
	// All 10 sets stamped the interval, plus the touches bumped counts.
	var maxC uint32
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 4 { // k0: 1 (set) + 3 (gets)
		t.Fatalf("max access count = %d, want >= 4", maxC)
	}
	// New interval: old counts are not re-collected.
	counts2 := s.AdvanceSampleInterval(0)
	if len(counts2) != 0 {
		t.Fatalf("untouched interval returned %d counts", len(counts2))
	}
}

func TestStatsSnapshotCounters(t *testing.T) {
	s := newTestStore()
	s.Set([]byte("a"), []byte("1"))
	s.Get([]byte("a"))
	s.Get([]byte("zzz"))
	s.Delete([]byte("a"))
	st := s.StatsSnapshot()
	if st.Sets != 1 || st.Gets != 2 || st.Deletes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 100000, Seed: 7})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := []byte(fmt.Sprintf("w%d-k%d", w, i%100))
				switch i % 4 {
				case 0, 1:
					if _, _, err := s.Set(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				case 2:
					s.Get(key)
				case 3:
					s.Delete(key)
				}
			}
		}()
	}
	wg.Wait()
}

func TestSetGetPropertyModelCheck(t *testing.T) {
	// Property: the store agrees with a map model under sequential ops.
	type op struct {
		Kind byte
		K    uint8
		V    uint16
	}
	f := func(ops []op) bool {
		s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 4096, Seed: 3})
		model := map[string]string{}
		for _, o := range ops {
			key := fmt.Sprintf("key-%d", o.K)
			switch o.Kind % 3 {
			case 0:
				val := fmt.Sprintf("val-%d", o.V)
				if _, _, err := s.Set([]byte(key), []byte(val)); err != nil {
					return false
				}
				model[key] = val
			case 1:
				got, ok := s.Get([]byte(key))
				want, wantOK := model[key]
				if ok != wantOK || (ok && string(got) != want) {
					return false
				}
			case 2:
				gotDel := s.Delete([]byte(key))
				_, wantOK := model[key]
				if gotDel != wantOK {
					return false
				}
				delete(model, key)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeValues(t *testing.T) {
	s := newTestStore()
	big := bytes.Repeat([]byte("x"), 10000)
	if _, _, err := s.Set([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get([]byte("big"))
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("big value corrupted")
	}
	// Beyond max chunk: error surfaces.
	if _, _, err := s.Set([]byte("huge"), bytes.Repeat([]byte("y"), 1<<20)); err == nil {
		t.Fatal("expected too-large error")
	}
}

// TestShardedSetGetDelete (named for the sharded store it was written for)
// sets, reads back and half-deletes a 5000-key population.
func TestShardedSetGetDelete(t *testing.T) {
	s := New(Config{MemoryBytes: 32 << 20, IndexEntries: 20000, Seed: 7})
	const n = 5000
	key := func(i int) []byte { return []byte(fmt.Sprintf("shard-key-%05d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%05d", i, i*i)) }
	for i := 0; i < n; i++ {
		if _, _, err := s.Set(key(i), val(i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get(key(i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d = %q/%v, want %q", i, v, ok, val(i))
		}
	}
	st := s.StatsSnapshot()
	if st.LiveObjects != n {
		t.Fatalf("live objects = %d, want %d", st.LiveObjects, n)
	}
	for i := 0; i < n; i += 2 {
		if !s.Delete(key(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := s.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("get %d after deletes = %v, want %v", i, ok, want)
		}
	}
}

// TestShardedTaskGranularRoundTrip (named for the sharded store it was
// written for): every location IndexSearch returns resolves through the
// task-granular KeyCompare / ReadValueInto without re-hashing the key.
func TestShardedTaskGranularRoundTrip(t *testing.T) {
	s := New(Config{MemoryBytes: 16 << 20, IndexEntries: 4096, Seed: 3})
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("tg-%04d", i))
		if _, _, err := s.Set(k, []byte(fmt.Sprintf("tv-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("tg-%04d", i))
		var found bool
		for _, loc := range s.IndexSearch(k, nil) {
			if s.KeyCompare(loc, k) {
				v, ok := s.ReadValueInto(loc, nil)
				if !ok || string(v) != fmt.Sprintf("tv-%04d", i) {
					t.Fatalf("ReadValueInto(%q) = %q/%v", k, v, ok)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("no matching candidate for %q", k)
		}
	}
}

func TestFailedOverwritePreservesOldValue(t *testing.T) {
	// A SET that fails (value too large for any class) must leave the
	// previous object intact: the allocation happens before the old entry
	// is touched. Regression for the old order that deleted first.
	scfg := slab.Config{TotalBytes: 32 << 10, SlabBytes: 32 << 10, MinChunk: 512, MaxChunk: 512, Growth: 2}
	s := New(Config{MemoryBytes: 32 << 10, IndexEntries: 256, Seed: 1, Slab: &scfg})
	if _, _, err := s.Set([]byte("k"), []byte("precious")); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Set([]byte("k"), make([]byte, 4096)) // exceeds the single 512B class
	if err != slab.ErrTooLarge {
		t.Fatalf("oversized overwrite err = %v, want ErrTooLarge", err)
	}
	v, ok := s.Get([]byte("k"))
	if !ok || string(v) != "precious" {
		t.Fatalf("old value lost after failed overwrite: %q/%v", v, ok)
	}
}

func TestOverwriteEvictingOwnOldObject(t *testing.T) {
	// One-chunk arena: overwriting the sole resident key forces the
	// allocator to evict that key's own old object. The store must notice
	// the victim aliases the object being overwritten (no double delete,
	// no free of the new object) and the new value must be readable.
	scfg := slab.Config{TotalBytes: 512, SlabBytes: 512, MinChunk: 512, MaxChunk: 512, Growth: 2}
	s := New(Config{MemoryBytes: 512, IndexEntries: 64, Seed: 1, Slab: &scfg})
	if _, _, err := s.Set([]byte("solo"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ins, dels, err := s.Set([]byte("solo"), []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if ins != 1 || dels != 1 {
		t.Fatalf("self-evicting overwrite: ins=%d dels=%d, want 1/1", ins, dels)
	}
	v, ok := s.Get([]byte("solo"))
	if !ok || string(v) != "v2" {
		t.Fatalf("get after self-evicting overwrite = %q/%v", v, ok)
	}
	if st := s.StatsSnapshot(); st.LiveObjects != 1 {
		t.Fatalf("live objects = %d, want 1", st.LiveObjects)
	}
}

func TestOverwriteNoMissWindow(t *testing.T) {
	// Readers hammer a key that a writer continuously overwrites. Because
	// Set inserts the new entry before deleting the old one, a concurrent
	// Get must never miss and must observe one of the written values.
	s := New(Config{MemoryBytes: 4 << 20, IndexEntries: 4096, Seed: 9})
	key := []byte("hot")
	if _, _, err := s.Set(key, []byte("gen-0")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 0, 64)
			for {
				select {
				case <-done:
					return
				default:
				}
				v, ok := s.GetInto(key, dst[:0])
				if !ok {
					t.Error("concurrent Get missed during overwrite")
					return
				}
				if !bytes.HasPrefix(v, []byte("gen-")) {
					t.Errorf("torn value %q", v)
					return
				}
			}
		}()
	}
	for i := 1; i <= 3000; i++ {
		if _, _, err := s.Set(key, []byte(fmt.Sprintf("gen-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// BenchmarkStoreGetParallel measures the zero-alloc GET path under
// parallelism. The GetInto form must report 0 allocs/op.
func BenchmarkStoreGetParallel(b *testing.B) {
	s := New(Config{MemoryBytes: 64 << 20, IndexEntries: 1 << 16, Seed: 11})
	const n = 4096
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
		if _, _, err := s.Set(keys[i], bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 0, 256)
		i := 0
		for pb.Next() {
			v, ok := s.GetInto(keys[i&(n-1)], dst[:0])
			if !ok {
				b.Fatal("miss")
			}
			dst = v[:0]
			i++
		}
	})
}

// BenchmarkStoreSetParallel measures overwriting SETs from parallel writers.
func BenchmarkStoreSetParallel(b *testing.B) {
	s := New(Config{MemoryBytes: 64 << 20, IndexEntries: 1 << 16, Seed: 11})
	const n = 4096
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
	}
	val := bytes.Repeat([]byte{0xab}, 100)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := s.Set(keys[i&(n-1)], val); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
