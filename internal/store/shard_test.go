package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/slab"
)

func TestShardNormalization(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {16, 16}, {100, 16},
	}
	for _, c := range cases {
		if got := normalizeShards(c.in); got != c.want {
			t.Errorf("normalizeShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestShardedSetGetDelete(t *testing.T) {
	s := New(Config{MemoryBytes: 32 << 20, IndexEntries: 20000, Seed: 7, Shards: 8})
	if s.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", s.Shards())
	}
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

func TestShardedTaskGranularRoundTrip(t *testing.T) {
	// Locations returned by IndexSearch must carry the shard id so the
	// task-granular ops resolve them without re-hashing the key.
	s := New(Config{MemoryBytes: 16 << 20, IndexEntries: 4096, Seed: 3, Shards: 4})
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
// parallelism. The GetInto form must report 0 allocs/op, and Shards=8 should
// out-scale Shards=1 once writers contend.
func BenchmarkStoreGetParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(Config{MemoryBytes: 64 << 20, IndexEntries: 1 << 16, Seed: 11, Shards: shards})
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
		})
	}
}

// BenchmarkStoreSetParallel shows the sharding win: independent writers on
// one shard serialize on the slab lock; on 8 shards they mostly do not.
func BenchmarkStoreSetParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(Config{MemoryBytes: 64 << 20, IndexEntries: 1 << 16, Seed: 11, Shards: shards})
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
		})
	}
}
