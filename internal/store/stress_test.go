package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/slab"
)

// TestConcurrentEvictionStress hammers a deliberately tiny arena so nearly
// every SET evicts while readers race the chunk reuse. Every value is a run
// of one repeated byte derived from its key, so a read that returns mixed
// bytes is a torn read — detectable even without the race detector. Run
// under -race (scripts/check.sh does) this also proves the seqlock read
// path is data-race-free.
func TestConcurrentEvictionStress(t *testing.T) {
	// The subtest keeps the name it had when the store could be sharded:
	// one table per store is now the only configuration.
	t.Run("shards=1", testConcurrentEvictionStress)
}

func testConcurrentEvictionStress(t *testing.T) {
	scfg := slab.Config{TotalBytes: 8 << 10, SlabBytes: 8 << 10, MinChunk: 256, MaxChunk: 256, Growth: 2}
	s := New(Config{MemoryBytes: 8 << 10, IndexEntries: 1024, Seed: 5, Slab: &scfg})
	const (
		workers = 8
		keys    = 128 // arena holds ~32 chunks: constant eviction
		iters   = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, 0, 256)
			val := make([]byte, 100)
			for i := 0; i < iters; i++ {
				k := (w*31 + i*7) % keys
				key := []byte(fmt.Sprintf("stress-%03d", k))
				switch i % 4 {
				case 0, 1:
					v, ok := s.GetInto(key, dst[:0])
					if ok {
						fill := byte(k)
						for j, b := range v {
							if b != fill {
								t.Errorf("torn read key %d: byte %d = %#x, want %#x", k, j, b, fill)
								return
							}
						}
					}
					dst = v[:0]
				case 2:
					for j := range val {
						val[j] = byte(k)
					}
					if _, _, err := s.Set(key, val); err != nil {
						t.Errorf("set key %d: %v", k, err)
						return
					}
				case 3:
					s.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
	// The store must still be coherent after the storm.
	if _, _, err := s.Set([]byte("post"), []byte{1, 2, 3}); err != nil {
		t.Fatalf("post-stress set: %v", err)
	}
	if v, ok := s.Get([]byte("post")); !ok || len(v) != 3 {
		t.Fatalf("post-stress get = %v/%v", v, ok)
	}
}
