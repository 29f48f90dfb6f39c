package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// upkeepValue is a value that embeds its key, so a scan that read a foreign
// object would show it.
func upkeepValue(k []byte) []byte {
	return append(append([]byte(nil), k...), "|value"...)
}

// checkOrderedExact scans the quiescent store and requires exactly its
// distinct live keys — every key some arena object holds that the cuckoo
// index still resolves — in strictly ascending order, each with its current
// value, and no snapshot location gone stale.
func checkOrderedExact(t *testing.T, s *Store) {
	t.Helper()
	live := map[string]bool{}
	s.Range(func(k, _ []byte) bool {
		if _, ok := s.Get(k); ok {
			live[string(k)] = true
		}
		return true
	})
	fallbacks := s.StatsSnapshot().ScanFallbacks
	var prev []byte
	n, ok := s.Scan(nil, nil, 0, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan order broken: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		if !live[string(k)] {
			t.Fatalf("scan returned %q, which is not live", k)
		}
		if want, _ := s.Get(k); !bytes.Equal(v, want) {
			t.Fatalf("scan read %q for %q, Get reads %q", v[:min(len(v), 16)], k, want[:min(len(want), 16)])
		}
		return true
	})
	if !ok || n != len(live) {
		t.Fatalf("scan returned %d keys (ok=%v), want the %d live ones", n, ok, len(live))
	}
	st := s.StatsSnapshot()
	if fb := st.ScanFallbacks - fallbacks; fb != 0 {
		t.Fatalf("quiescent scan of %d keys fell back %d times: tree locations are stale", n, fb)
	}
	if st.OrderedKeys != len(live) || st.OrderedMaintained != 1 {
		t.Fatalf("after the scan: %d ordered keys, maintained = %d; want %d, 1",
			st.OrderedKeys, st.OrderedMaintained, len(live))
	}
}

// TestOrderedUpkeepDropAndRebuild walks the store through the rent-or-buy
// cycle: loading never drops the tree; more than 2 × live keys + upkeepFloor
// writes with no scan drop it (and nothing is left in it); the next scan
// rebuilds it to exactly the live key set; and writes from then on keep it
// exact, because that scan restarted the count.
func TestOrderedUpkeepDropAndRebuild(t *testing.T) {
	// The subtest keeps the name it had when the store could be sharded:
	// one tree per store is now the only configuration.
	t.Run("shards=1", testOrderedUpkeepDropAndRebuild)
}

func testOrderedUpkeepDropAndRebuild(t *testing.T) {
	// 512 KiB holds about 8 000 of these objects, so a SET to a key outside
	// the 12 000-key universe's resident part evicts.
	const universe = 12000
	s := orderedStore(t, Config{MemoryBytes: 512 << 10, IndexEntries: 1 << 14})
	rng := rand.New(rand.NewSource(1))
	key := func(i int) []byte { return []byte(fmt.Sprintf("up-%06d", i)) }
	set := func(k []byte) {
		if _, _, err := s.Set(k, upkeepValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < universe; i++ {
		set(key(i))
	}
	if st := s.StatsSnapshot(); st.Evictions == 0 || st.OrderedDrops != 0 {
		t.Fatalf("load: %d evictions, %d drops; want evictions and no drop", st.Evictions, st.OrderedDrops)
	}
	checkOrderedExact(t, s)

	// Overwrites, evicting SETs and deletes, no scan: the store crosses its
	// limit once it has taken about upkeepFloor + 2 × live writes.
	write := func() {
		k := key(rng.Intn(universe))
		if rng.Intn(8) == 0 {
			s.Delete(k)
		} else {
			set(k)
		}
	}
	limit := upkeepFloor + 2*s.Len()
	for i := 0; i < 2*limit && (i%256 != 0 || s.StatsSnapshot().OrderedDrops == 0); i++ {
		write()
	}
	st := s.StatsSnapshot()
	if st.OrderedDrops != 1 || st.OrderedKeys != 0 || st.OrderedMaintained != 0 {
		t.Fatalf("after a write-only stretch: %d drops, %d ordered keys, maintained = %d; want 1, 0, 0",
			st.OrderedDrops, st.OrderedKeys, st.OrderedMaintained)
	}
	for i := 0; i < 5000; i++ { // writes to a dropped tree leave it empty
		write()
	}
	if st := s.StatsSnapshot(); st.OrderedKeys != 0 || st.OrderedRebuilds != 0 {
		t.Fatalf("the dropped tree took keys: %d ordered keys, %d rebuilds", st.OrderedKeys, st.OrderedRebuilds)
	}
	checkOrderedExact(t, s)
	if st := s.StatsSnapshot(); st.OrderedRebuilds != 1 {
		t.Fatalf("the scan rebuilt %d trees, want 1", st.OrderedRebuilds)
	}

	for i := 0; i < universe; i++ {
		write()
	}
	checkOrderedExact(t, s)
	if st := s.StatsSnapshot(); st.OrderedDrops != 1 || st.OrderedRebuilds != 1 {
		t.Fatalf("maintained stretch: %d drops, %d rebuilds; want 1 of each", st.OrderedDrops, st.OrderedRebuilds)
	}
}

// TestOrderedUpkeepDropRebuildRace runs three writers — overwrites, evicting
// SETs of new keys, deletes — while a scanner lets the store drop its tree,
// rebuilds it with a scan under the writers' feet, and repeats. Writes race
// both the drop and the rebuild's arena walk; once they stop, one scan must
// see exactly the live key set with no stale location, which is the
// convergence argument of orderedSnapshot.
func TestOrderedUpkeepDropRebuildRace(t *testing.T) {
	const universe = 6000 // 256 KiB holds about 4 000 objects
	s := orderedStore(t, Config{MemoryBytes: 256 << 10, IndexEntries: 1 << 13})
	key := func(i int) []byte { return []byte(fmt.Sprintf("rc-%06d", i)) }
	for i := 0; i < universe/2; i++ {
		k := key(i)
		if _, _, err := s.Set(k, upkeepValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				switch k := key(rng.Intn(universe)); w {
				case 0, 1: // overwrite or insert; either may evict
					if _, _, err := s.Set(k, upkeepValue(k)); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				case 2:
					s.Delete(k)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(30 * time.Second)
	for cycle := uint64(1); cycle <= 2 && time.Now().Before(deadline); {
		if s.StatsSnapshot().OrderedDrops < cycle {
			time.Sleep(time.Millisecond)
			continue
		}
		s.Scan(nil, nil, 0, func(k, v []byte) bool {
			if !bytes.HasPrefix(v, k) {
				t.Errorf("key %q resolved foreign value %q...", k, v[:min(len(v), 16)])
				return false
			}
			return true
		})
		cycle++
	}
	stop.Store(true)
	writers.Wait()
	st := s.StatsSnapshot()
	if st.OrderedDrops < 2 || st.OrderedRebuilds < 2 {
		t.Fatalf("%d drops and %d rebuilds in 30 s; want at least 2 of each", st.OrderedDrops, st.OrderedRebuilds)
	}
	checkOrderedExact(t, s)
}

// BenchmarkOrderedRebuild times the rebuild a scan pays after a drop — walk
// the arena, resolve each key through the cuckoo index, sort, bulk-build — on
// a store holding n 32-byte keys, in ns per key.
func BenchmarkOrderedRebuild(b *testing.B) {
	for _, n := range []int{262144, 1 << 20} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s := New(Config{MemoryBytes: int64(n) * 128, Ordered: true})
			k, v := make([]byte, 32), make([]byte, 16)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(k, uint64(i)*0x9e3779b97f4a7c15)
				copy(k[8:], "rebuild-benchmark-key-")
				if _, _, err := s.Set(k, v); err != nil {
					b.Fatal(err)
				}
			}
			if s.Len() != n {
				b.Fatalf("store holds %d keys, want %d", s.Len(), n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.upkeep.Store(math.MaxInt64 / 2)
				s.dropOrdered()
				b.StartTimer()
				s.NewScanner()
			}
			b.StopTimer()
			if got := s.StatsSnapshot().OrderedKeys; got != n {
				b.Fatalf("rebuilt tree holds %d keys, want %d", got, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}
