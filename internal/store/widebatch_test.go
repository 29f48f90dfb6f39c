package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cuckoo"
)

func wideKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func newWideStore() *Store {
	return New(Config{MemoryBytes: 32 << 20, IndexEntries: 1 << 15, Seed: 11})
}

// TestSearchBatchMatchesIndexSearch checks the wide search returns exactly
// the scalar per-key candidate lists, across batch sizes, for present and
// absent keys alike.
func TestSearchBatchMatchesIndexSearch(t *testing.T) {
	s := newWideStore()
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
				t.Fatalf("n=%d key %d: %v != %v", n, i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("n=%d key %d: %v != %v", n, i, got, want)
				}
			}
		}
	}
}

// TestGetBatchMatchesGetInto checks the fused wide GET agrees with the scalar
// GetInto for every key of a mixed hit/miss batch, and that the hit count and
// miss convention (vlo = -1) are right.
func TestGetBatchMatchesGetInto(t *testing.T) {
	s := newWideStore()
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
				t.Fatalf("key %d: batch %q (lo=%d) != scalar %q", i, vals[vlo[i]:vhi[i]], vlo[i], want)
			}
		} else if vlo[i] != -1 {
			t.Fatalf("key %d: batch hit %q but scalar missed", i, vals[vlo[i]:vhi[i]])
		}
	}
	if hits != wantHits {
		t.Fatalf("hits = %d, want %d", hits, wantHits)
	}
}

// TestReadCandidatesBatchStaleFallsBack mirrors the scalar stale-candidate
// contract: candidates collected before an overwrite must still resolve the
// new value through the authoritative re-sweep, not report a miss.
func TestReadCandidatesBatchStaleFallsBack(t *testing.T) {
	s := newWideStore()
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
	s := newWideStore()
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

// TestReadCandidatesBatchForeignShardSkipped (named for the sharded store it
// was written for): candidates that cannot be the key's object — another
// key's live object and locations the store never issued — fail
// verification without a panic, and the fallback resolves the right value.
func TestReadCandidatesBatchForeignShardSkipped(t *testing.T) {
	s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 4096, Seed: 3})
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Set([]byte("beta"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	wrong := append(s.IndexSearch([]byte("beta"), nil), foreignLocs(s)...)
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

// TestReadCandidatesBatchRoutesByLocation: whatever the candidates — the
// key's own, locations the store never issued (first, so the chunk touch
// meets them), another key's live object, or none at all — every key must
// read exactly what GetBatch reads for it.
func TestReadCandidatesBatchRoutesByLocation(t *testing.T) {
	s := newWideStore()
	for i := 0; i < 3000; i++ {
		if _, _, err := s.Set(wideKey(i), []byte(fmt.Sprintf("val-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const n = 200
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = wideKey((i * 37) % 4000) // hits and misses
	}
	var cands []cuckoo.Location
	lo, hi := make([]int32, n), make([]int32, n)
	for i, k := range keys {
		own := s.IndexSearch(k, nil)
		lo[i] = int32(len(cands))
		switch i % 5 {
		case 0:
			cands = append(cands, own...)
		case 1: // never-issued locations, then the key's own
			cands = append(cands, foreignLocs(s)...)
			cands = append(cands, own...)
		case 2: // another key's live object, nothing of its own
			cands = append(cands, s.IndexSearch(wideKey((i*37+1)%3000), nil)...)
		case 3: // never-issued locations only
			cands = append(cands, foreignLocs(s)...)
		case 4: // no candidates
		}
		hi[i] = int32(len(cands))
	}
	vlo, vhi := make([]int32, n), make([]int32, n)
	vals, hits := s.ReadCandidatesBatch(keys, cands, lo, hi, nil, vlo, vhi)
	wlo, whi := make([]int32, n), make([]int32, n)
	want, wantHits := s.GetBatch(keys, nil, wlo, whi)
	if hits != wantHits {
		t.Fatalf("hits = %d, GetBatch hits = %d", hits, wantHits)
	}
	for i := range keys {
		if (vlo[i] < 0) != (wlo[i] < 0) {
			t.Fatalf("key %d (case %d): vlo = %d, GetBatch vlo = %d", i, i%5, vlo[i], wlo[i])
		}
		if vlo[i] >= 0 && string(vals[vlo[i]:vhi[i]]) != string(want[wlo[i]:whi[i]]) {
			t.Fatalf("key %d (case %d): %q, GetBatch %q", i, i%5, vals[vlo[i]:vhi[i]], want[wlo[i]:whi[i]])
		}
	}
}

// TestGetBatchConcurrentChurn hammers GetBatch over a stable key population
// while writers churn a disjoint range: stable keys must never miss and must
// always read their exact value (the amortized version check may send them
// through the scalar fallback, never to a wrong answer).
func TestGetBatchConcurrentChurn(t *testing.T) {
	s := newWideStore()
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
	s := newWideStore()
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

// primaryCollision builds, on a store with a 16-bucket index, a key whose
// live entry sits in its alternate bucket while its primary bucket holds
// another key's entry with the same signature — the case where the batched
// search's primary-first probe finds only a false candidate. It brute-forces
// keys by hash: decoy shares the key's primary bucket and signature (so its
// alternate bucket too), seven fillers share the primary bucket, and absent
// is a third key with the key's bucket and signature that is never stored.
// It checks the layout it built before returning.
func primaryCollision(t *testing.T) (s *Store, k, absent []byte) {
	t.Helper()
	s = New(Config{MemoryBytes: 1 << 20, IndexEntries: 64, Seed: 17})
	mask := uint64(s.idx.Buckets() - 1)
	// home mirrors the table's hash split: bucket = low bits, signature =
	// top 16 bits (0 maps to 1).
	home := func(key []byte) (uint64, uint16) {
		h := s.hash(key)
		sig := uint16(h >> 48)
		if sig == 0 {
			sig = 1
		}
		return h & mask, sig
	}
	type slot struct {
		b   uint64
		sig uint16
	}
	seen := make(map[slot][][]byte)
	var trio [][]byte
	for i := 0; trio == nil; i++ {
		if i == 1<<20 {
			t.Fatal("no three keys share a bucket and a signature")
		}
		key := []byte(fmt.Sprintf("pc-%d", i))
		b, sig := home(key)
		sl := slot{b, sig}
		seen[sl] = append(seen[sl], key)
		if len(seen[sl]) == 3 {
			trio = seen[sl]
		}
	}
	decoy, k, absent := trio[0], trio[1], trio[2]
	b1, sig := home(k)
	if _, _, err := s.Set(decoy, []byte("decoy")); err != nil {
		t.Fatal(err)
	}
	for i, filled := 0, 1; filled < cuckoo.SlotsPerBucket; i++ {
		key := []byte(fmt.Sprintf("fill-%d", i))
		if b, fs := home(key); b != b1 || fs == sig {
			continue
		}
		if _, _, err := s.Set(key, []byte("filler")); err != nil {
			t.Fatal(err)
		}
		filled++
	}
	if _, _, err := s.Set(k, []byte("live")); err != nil {
		t.Fatal(err)
	}
	// The layout: the scalar probe sees the decoy and the key, the batched
	// search (primary bucket only) the decoy alone.
	own, _ := s.lookupLoc(s.hash(k), k)
	if all := s.IndexSearch(k, nil); len(all) != 2 || all[1] != own {
		t.Fatalf("IndexSearch = %v, want [decoy %v]", all, own)
	}
	lo, hi := make([]int32, 1), make([]int32, 1)
	if got := s.SearchBatch([][]byte{k}, nil, lo, hi); len(got) != 1 || got[0] == own {
		t.Fatalf("SearchBatch = %v, want the decoy alone", got)
	}
	return s, k, absent
}

// TestGetBatchPrimaryCollisionHit: a key whose only primary-bucket candidate
// is another key's entry must still hit through its alternate bucket, both
// fused (GetBatch) and staged (SearchBatch, then ReadCandidatesBatch).
func TestGetBatchPrimaryCollisionHit(t *testing.T) {
	s, k, _ := primaryCollision(t)
	keys := [][]byte{k}
	vlo, vhi := make([]int32, 1), make([]int32, 1)
	vals, hits := s.GetBatch(keys, nil, vlo, vhi)
	if hits != 1 || vlo[0] < 0 || string(vals[vlo[0]:vhi[0]]) != "live" {
		t.Fatalf("GetBatch hits=%d vlo=%d, want the live value", hits, vlo[0])
	}
	lo, hi := make([]int32, 1), make([]int32, 1)
	cands := s.SearchBatch(keys, nil, lo, hi)
	vals, hits = s.ReadCandidatesBatch(keys, cands, lo, hi, vals[:0], vlo, vhi)
	if hits != 1 || vlo[0] < 0 || string(vals[vlo[0]:vhi[0]]) != "live" {
		t.Fatalf("ReadCandidatesBatch hits=%d vlo=%d, want the live value", hits, vlo[0])
	}
}

// TestGetBatchPrimaryCollisionMiss: an absent key whose primary bucket holds
// a same-signature entry of another key is a miss on both batched paths,
// beside a hit in the same batch.
func TestGetBatchPrimaryCollisionMiss(t *testing.T) {
	s, k, absent := primaryCollision(t)
	keys := [][]byte{absent, k}
	vlo, vhi := make([]int32, 2), make([]int32, 2)
	vals, hits := s.GetBatch(keys, nil, vlo, vhi)
	if hits != 1 || vlo[0] != -1 || string(vals[vlo[1]:vhi[1]]) != "live" {
		t.Fatalf("GetBatch hits=%d vlo=%v, want a miss then the live value", hits, vlo)
	}
	lo, hi := make([]int32, 2), make([]int32, 2)
	cands := s.SearchBatch(keys, nil, lo, hi)
	vals, hits = s.ReadCandidatesBatch(keys, cands, lo, hi, vals[:0], vlo, vhi)
	if hits != 1 || vlo[0] != -1 || string(vals[vlo[1]:vhi[1]]) != "live" {
		t.Fatalf("ReadCandidatesBatch hits=%d vlo=%v, want a miss then the live value", hits, vlo)
	}
}
