package cuckoo

import (
	"fmt"
	"sync"
	"testing"
)

// collectBatch runs SearchBatch over keys and returns per-key candidate
// slices (aliasing the arena).
func collectBatch(tbl *Table, keys [][]byte, sc *SearchScratch) [][]Location {
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = Hash(k, tbl.Seed())
	}
	cands := make([]Location, len(keys)*MaxCandidates)
	counts := make([]int32, len(keys))
	tbl.SearchBatch(hashes, sc, cands, counts)
	out := make([][]Location, len(keys))
	for i := range keys {
		out[i] = cands[i*MaxCandidates : i*MaxCandidates+int(counts[i])]
	}
	return out
}

func sameCands(a []Location, b []Location) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scalarAndPrimary returns SearchBuf's candidates for k and, separately, the
// matches in k's primary bucket alone.
func scalarAndPrimary(tbl *Table, k []byte) (scalar, primary []Location) {
	var buf, prim [MaxCandidates]Location
	nb, _ := tbl.SearchBuf(k, &buf)
	b1, sig := tbl.split(hash64(k, tbl.seed))
	np := tbl.scanBucketInto(b1, sig, &prim, 0)
	return buf[:nb], prim[:np]
}

// checkPrimaryFirstWant is SearchBatch's contract for one key: its
// candidates are a prefix of the scalar probe's — exactly the primary
// bucket's matches when it has any — and equal to the scalar probe's
// whenever the primary bucket has no match.
func checkPrimaryFirstWant(got, scalar, primary []Location) error {
	want := scalar
	if len(primary) > 0 {
		want = primary
	}
	if len(want) > len(scalar) || !sameCands(want, scalar[:len(want)]) {
		return fmt.Errorf("primary matches %v are not a prefix of scalar %v", primary, scalar)
	}
	if !sameCands(got, want) {
		return fmt.Errorf("batch %v, want %v (scalar %v)", got, want, scalar)
	}
	return nil
}

// checkPrimaryFirst checks k's batched candidates against a table no writer
// changes meanwhile.
func checkPrimaryFirst(tbl *Table, k []byte, got []Location) error {
	scalar, primary := scalarAndPrimary(tbl, k)
	return checkPrimaryFirstWant(got, scalar, primary)
}

// TestSearchBatchMatchesSearchBuf checks, on a quiescent table, that the wide
// wave search returns the scalar per-key probe's candidates under the
// primary-first contract (see checkPrimaryFirst) — present keys, absent keys,
// and batch sizes spanning the wave-width range.
func TestSearchBatchMatchesSearchBuf(t *testing.T) {
	tbl := New(1024, 7)
	for i := 1; i <= 3000; i++ {
		if !tbl.Insert(key(i), Location(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	var sc SearchScratch
	for _, n := range []int{1, 2, 8, 32, 128, 512} {
		keys := make([][]byte, n)
		for i := range keys {
			// Mix hits (1..3000) and guaranteed misses (>3000).
			keys[i] = key(1 + (i*2711)%4000)
		}
		got := collectBatch(tbl, keys, &sc)
		for i, k := range keys {
			if err := checkPrimaryFirst(tbl, k, got[i]); err != nil {
				t.Fatalf("n=%d key %d: %v", n, i, err)
			}
		}
	}
}

// TestSearchBatchPrimaryFirst pins the primary-first probe: a key whose
// primary bucket holds a match is not probed in its alternate bucket, and a
// key whose entry sits only in its alternate bucket is still found there.
func TestSearchBatchPrimaryFirst(t *testing.T) {
	tbl := New(64, 99)
	// Nine entries for one key: eight fill its primary bucket, the ninth
	// lands in the alternate.
	k := key(32)
	for i := 0; i < SlotsPerBucket+1; i++ {
		if !tbl.Insert(k, Location(i+1)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	var buf [MaxCandidates]Location
	if nb, _ := tbl.SearchBuf(k, &buf); nb != SlotsPerBucket+1 {
		t.Fatalf("scalar found %d candidates, want %d", nb, SlotsPerBucket+1)
	}
	var sc SearchScratch
	got := collectBatch(tbl, [][]byte{k}, &sc)[0]
	if !sameCands(got, buf[:SlotsPerBucket]) {
		t.Fatalf("batch %v, want the primary bucket's %v", got, buf[:SlotsPerBucket])
	}
	// Empty the primary bucket: the alternate entry must now be found.
	for i := 0; i < SlotsPerBucket; i++ {
		if !tbl.Delete(k, buf[i]) {
			t.Fatalf("delete %d failed", buf[i])
		}
	}
	got = collectBatch(tbl, [][]byte{k}, &sc)[0]
	if !sameCands(got, buf[SlotsPerBucket:SlotsPerBucket+1]) {
		t.Fatalf("batch %v, want the alternate bucket's %v", got, buf[SlotsPerBucket:SlotsPerBucket+1])
	}
}

func TestSearchBatchEmpty(t *testing.T) {
	tbl := New(64, 1)
	var sc SearchScratch
	if probed := tbl.SearchBatch(nil, &sc, nil, nil); probed != 0 {
		t.Fatalf("empty batch probed %d", probed)
	}
}

// TestSearchBatchUnderChurn compares the wide and scalar searches while a
// writer churns inserts and deletes. A batch is not a snapshot, so results
// are only comparable when no mutation overlapped either search: the test
// brackets both with Version() and retries the window until it gets enough
// clean comparisons, then stops the churn and requires a final exact pass.
func TestSearchBatchUnderChurn(t *testing.T) {
	tbl := New(2048, 13)
	for i := 1; i <= 4000; i++ {
		tbl.Insert(key(i), Location(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		j := 4001
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Insert(key(j), Location(j))
			tbl.Delete(key(j-4000+1), Location(j-4000+1))
			j++
		}
	}()

	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = key(1 + (i*97)%5000)
	}
	var sc SearchScratch
	clean := 0
	for tries := 0; tries < 20000 && clean < 20; tries++ {
		v1 := tbl.Version()
		got := collectBatch(tbl, keys, &sc)
		want := make([][]Location, len(keys))
		prims := make([][]Location, len(keys))
		for i, k := range keys {
			want[i], prims[i] = scalarAndPrimary(tbl, k)
		}
		if tbl.Version() != v1 {
			continue // a mutation raced one of the searches; not comparable
		}
		clean++
		for i := range keys {
			if err := checkPrimaryFirstWant(got[i], want[i], prims[i]); err != nil {
				t.Fatalf("stable window, key %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Always verifiable once quiescent.
	got := collectBatch(tbl, keys, &sc)
	for i, k := range keys {
		if err := checkPrimaryFirst(tbl, k, got[i]); err != nil {
			t.Fatalf("quiescent key %d: %v", i, err)
		}
	}
	if clean == 0 {
		t.Log("no version-stable window observed; only the quiescent check ran")
	}
}

// FuzzSearchBatchMatchesSearchBuf drives an arbitrary insert/delete history,
// then asserts the wide search agrees with the scalar search for every probe
// key — including keys the history deleted or never inserted — under the
// primary-first contract: the batched candidates are a prefix of the scalar
// ones, and equal to them whenever the primary bucket has no match.
func FuzzSearchBatchMatchesSearchBuf(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0x80, 0x41, 0x00, 0xff, 7, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tbl := New(64, 99)
		for _, b := range ops {
			k := key(int(b % 64))
			if b&0x80 == 0 {
				tbl.Insert(k, Location(b%64)+1)
			} else {
				tbl.Delete(k, Location(b%64)+1)
			}
		}
		keys := make([][]byte, 64)
		for i := range keys {
			keys[i] = key(i)
		}
		var sc SearchScratch
		got := collectBatch(tbl, keys, &sc)
		for i, k := range keys {
			if err := checkPrimaryFirst(tbl, k, got[i]); err != nil {
				t.Fatalf("key %d: %v", i, err)
			}
		}
	})
}

func BenchmarkTableSearchBatch(b *testing.B) {
	tbl := New(1<<14, 3)
	for i := 1; i <= 80000; i++ {
		tbl.Insert(key(i), Location(i))
	}
	for _, n := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			hashes := make([]uint64, n)
			for i := range hashes {
				hashes[i] = Hash(key(1+i*131%80000), tbl.Seed())
			}
			cands := make([]Location, n*MaxCandidates)
			counts := make([]int32, n)
			var sc SearchScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				tbl.SearchBatch(hashes, &sc, cands, counts)
			}
		})
	}
}
