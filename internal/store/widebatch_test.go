package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cuckoo"
)

func wideKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func newWideStore(shards int) *Store {
	return New(Config{MemoryBytes: 32 << 20, IndexEntries: 1 << 15, Seed: 11, Shards: shards})
}

// TestSearchBatchMatchesIndexSearch checks the shard-grouped wide search
// returns exactly the scalar per-key candidate lists, across shard counts and
// batch sizes, for present and absent keys alike.
func TestSearchBatchMatchesIndexSearch(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := newWideStore(shards)
		for i := 0; i < 5000; i++ {
			if _, _, err := s.Set(wideKey(i), wideKey(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{1, 8, 64, 300} {
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = wideKey((i * 2711) % 7000) // hits and misses
			}
			lo := make([]int32, n)
			hi := make([]int32, n)
			cands := s.SearchBatch(keys, nil, lo, hi)
			for i, k := range keys {
				want := s.IndexSearch(k, nil)
				got := cands[lo[i]:hi[i]]
				if len(got) != len(want) {
					t.Fatalf("shards=%d n=%d key %d: %v != %v", shards, n, i, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("shards=%d n=%d key %d: %v != %v", shards, n, i, got, want)
					}
				}
			}
		}
	}
}

// TestGetBatchMatchesGetInto checks the fused wide GET agrees with the scalar
// GetInto for every key of a mixed hit/miss batch, and that the hit count and
// miss convention (vlo = -1) are right.
func TestGetBatchMatchesGetInto(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := newWideStore(shards)
		for i := 0; i < 4000; i++ {
			if _, _, err := s.Set(wideKey(i), []byte(fmt.Sprintf("val-%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
		n := 257
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = wideKey((i * 31) % 6000)
		}
		vlo := make([]int32, n)
		vhi := make([]int32, n)
		vals, hits := s.GetBatch(keys, nil, vlo, vhi)
		wantHits := 0
		for i, k := range keys {
			want, ok := s.GetInto(k, nil)
			if ok {
				wantHits++
				if vlo[i] < 0 || string(vals[vlo[i]:vhi[i]]) != string(want) {
					t.Fatalf("shards=%d key %d: batch %q (lo=%d) != scalar %q", shards, i, vals[vlo[i]:vhi[i]], vlo[i], want)
				}
			} else if vlo[i] != -1 {
				t.Fatalf("shards=%d key %d: batch hit %q but scalar missed", shards, i, vals[vlo[i]:vhi[i]])
			}
		}
		if hits != wantHits {
			t.Fatalf("shards=%d: hits = %d, want %d", shards, hits, wantHits)
		}
	}
}

// TestReadCandidatesBatchStaleFallsBack mirrors the scalar stale-candidate
// contract: candidates collected before an overwrite must still resolve the
// new value through the authoritative re-sweep, not report a miss.
func TestReadCandidatesBatchStaleFallsBack(t *testing.T) {
	s := newWideStore(4)
	keys := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for _, k := range keys {
		if _, _, err := s.Set(k, append([]byte("old-"), k...)); err != nil {
			t.Fatal(err)
		}
	}
	lo := make([]int32, len(keys))
	hi := make([]int32, len(keys))
	cands := s.SearchBatch(keys, nil, lo, hi)
	// Overwrite beta (stale candidates) and delete gamma (genuine miss now).
	if _, _, err := s.Set([]byte("beta"), []byte("new-beta")); err != nil {
		t.Fatal(err)
	}
	s.Delete([]byte("gamma"))
	vlo := make([]int32, len(keys))
	vhi := make([]int32, len(keys))
	vals, hits := s.ReadCandidatesBatch(keys, cands, lo, hi, nil, vlo, vhi)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if string(vals[vlo[0]:vhi[0]]) != "old-alpha" {
		t.Fatalf("alpha = %q", vals[vlo[0]:vhi[0]])
	}
	if string(vals[vlo[1]:vhi[1]]) != "new-beta" {
		t.Fatalf("beta = %q, want authoritative new-beta", vals[vlo[1]:vhi[1]])
	}
	if vlo[2] != -1 {
		t.Fatalf("gamma: vlo = %d, want -1 (deleted)", vlo[2])
	}
}

// TestReadCandidatesBatchEmptyFallsBack: keys with no candidates at all (a
// same-batch insert the search ran before) must resolve authoritatively.
func TestReadCandidatesBatchEmptyFallsBack(t *testing.T) {
	s := newWideStore(2)
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("alpha"), []byte("missing")}
	lo := []int32{0, 0}
	hi := []int32{0, 0} // empty spans for both
	vlo := make([]int32, 2)
	vhi := make([]int32, 2)
	vals, hits := s.ReadCandidatesBatch(keys, nil, lo, hi, nil, vlo, vhi)
	if hits != 1 || string(vals[vlo[0]:vhi[0]]) != "one" {
		t.Fatalf("alpha = %q hits=%d, want one/1", vals[vlo[0]:vhi[0]], hits)
	}
	if vlo[1] != -1 {
		t.Fatalf("missing: vlo = %d, want -1", vlo[1])
	}
}

// TestReadCandidatesBatchForeignShardSkipped: candidates carrying another
// shard's id must be skipped (they cannot be this key's object), with the
// fallback still resolving the right value.
func TestReadCandidatesBatchForeignShardSkipped(t *testing.T) {
	s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 4096, Seed: 3, Shards: 4})
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Set([]byte("beta"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	wrong := s.IndexSearch([]byte("beta"), nil)
	wrong = append(wrong, cuckoo.Location(0))
	keys := [][]byte{[]byte("alpha")}
	lo := []int32{0}
	hi := []int32{int32(len(wrong))}
	vlo := make([]int32, 1)
	vhi := make([]int32, 1)
	vals, hits := s.ReadCandidatesBatch(keys, wrong, lo, hi, nil, vlo, vhi)
	if hits != 1 || string(vals[vlo[0]:vhi[0]]) != "one" {
		t.Fatalf("alpha with foreign cands = %q hits=%d, want one/1", vals[vlo[0]:vhi[0]], hits)
	}
}

// TestGetBatchConcurrentChurn hammers GetBatch over a stable key population
// while writers churn a disjoint range: stable keys must never miss and must
// always read their exact value (the amortized version check may send them
// through the scalar fallback, never to a wrong answer).
func TestGetBatchConcurrentChurn(t *testing.T) {
	s := newWideStore(4)
	const stable = 512
	for i := 0; i < stable; i++ {
		if _, _, err := s.Set(wideKey(i), wideKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			j := 100000 + w*1000000
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Set(wideKey(j), wideKey(j))
				s.Delete(wideKey(j - 50))
				j++
			}
		}(w)
	}
	keys := make([][]byte, 128)
	for i := range keys {
		keys[i] = wideKey((i * 13) % stable)
	}
	vlo := make([]int32, len(keys))
	vhi := make([]int32, len(keys))
	var vals []byte
	for iter := 0; iter < 3000; iter++ {
		var hits int
		vals, hits = s.GetBatch(keys, vals[:0], vlo, vhi)
		if hits != len(keys) {
			t.Fatalf("iter %d: hits = %d, want %d", iter, hits, len(keys))
		}
		for i := range keys {
			if vlo[i] < 0 || string(vals[vlo[i]:vhi[i]]) != string(keys[i]) {
				t.Fatalf("iter %d key %d: got %q", iter, i, vals[vlo[i]:vhi[i]])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestBatchPathZeroAllocs guards the pooled-scratch contract: with pre-sized
// caller arenas, steady-state GetBatch and SearchBatch allocate nothing.
func TestBatchPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race-detector instrumentation")
	}
	s := newWideStore(4)
	const n = 256
	for i := 0; i < 4000; i++ {
		if _, _, err := s.Set(wideKey(i), wideKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = wideKey((i * 7) % 4000)
	}
	vlo := make([]int32, n)
	vhi := make([]int32, n)
	vals := make([]byte, 0, n*16)
	if avg := testing.AllocsPerRun(50, func() {
		vals, _ = s.GetBatch(keys, vals[:0], vlo, vhi)
	}); avg != 0 {
		t.Fatalf("GetBatch allocs/op = %v, want 0", avg)
	}
	lo := make([]int32, n)
	hi := make([]int32, n)
	cands := make([]cuckoo.Location, 0, n*2)
	if avg := testing.AllocsPerRun(50, func() {
		cands = s.SearchBatch(keys, cands[:0], lo, hi)
	}); avg != 0 {
		t.Fatalf("SearchBatch allocs/op = %v, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		vals, _ = s.ReadCandidatesBatch(keys, cands, lo, hi, vals[:0], vlo, vhi)
	}); avg != 0 {
		t.Fatalf("ReadCandidatesBatch allocs/op = %v, want 0", avg)
	}
}

// TestReadNeverServesStale is the read-linearizability hammer: one writer
// overwrites a key with rising versions while readers alternate Get, GetBatch
// and SearchBatch followed by ReadCandidatesBatch — the live pipeline's only
// read path, split across two stages. Every read must return at least the
// version whose Set had completed before the read began, and must never
// miss: Set indexes the new object before it retires the old one, and the
// version-checked miss proof must see any overwrite that raced the probe.
func TestReadNeverServesStale(t *testing.T) {
	s := New(Config{MemoryBytes: 1 << 20, IndexEntries: 4096, Seed: 5})
	key := []byte("contended")
	val := func(v uint64) []byte { return []byte(fmt.Sprintf("v%08d", v)) }
	if _, _, err := s.Set(key, val(0)); err != nil {
		t.Fatal(err)
	}

	var completed atomic.Uint64
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := s.Set(key, val(v)); err != nil {
				t.Errorf("Set: %v", err)
				return
			}
			completed.Store(v)
		}
	}()

	const readers = 4
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			keys := [][]byte{key}
			lo, hi := make([]int32, 1), make([]int32, 1)
			vlo, vhi := make([]int32, 1), make([]int32, 1)
			var cands []cuckoo.Location
			var vals []byte
			for i := 0; i < 20000; i++ {
				floor := completed.Load()
				var got []byte
				var ok bool
				switch i % 3 {
				case 0:
					got, ok = s.Get(key)
				case 1:
					vals, _ = s.GetBatch(keys, vals[:0], vlo, vhi)
					ok = vlo[0] >= 0
				case 2:
					cands = s.SearchBatch(keys, cands[:0], lo, hi)
					vals, _ = s.ReadCandidatesBatch(keys, cands, lo, hi, vals[:0], vlo, vhi)
					ok = vlo[0] >= 0
				}
				if !ok {
					t.Errorf("read %d (path %d) missed a key that is always indexed", i, i%3)
					return
				}
				if i%3 != 0 {
					got = vals[vlo[0]:vhi[0]]
				}
				var v uint64
				if _, err := fmt.Sscanf(string(got), "v%08d", &v); err != nil {
					t.Errorf("unparseable value %q", got)
					return
				}
				if v < floor {
					t.Errorf("stale read (path %d): got version %d, but %d had completed before the read", i%3, v, floor)
					return
				}
			}
		}()
	}
	// The readers bound the test; stop the writer once they finish.
	rg.Wait()
	close(stop)
	writer.Wait()
}
