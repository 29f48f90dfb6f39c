package cuckoo

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	tbl := New(100, 1)
	if tbl.Buckets() != 128 {
		t.Fatalf("buckets = %d, want 128", tbl.Buckets())
	}
	if tbl.Capacity() != 128*SlotsPerBucket {
		t.Fatalf("capacity = %d", tbl.Capacity())
	}
	if New(0, 1).Buckets() != 1 {
		t.Fatal("min buckets should clamp to 1")
	}
}

func TestNewForCapacity(t *testing.T) {
	tbl := NewForCapacity(10000, 0.9, 1)
	if tbl.Capacity() < 10000 {
		t.Fatalf("capacity %d < requested 10000", tbl.Capacity())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad load factor")
		}
	}()
	NewForCapacity(10, 0, 1)
}

func TestInsertSearchDelete(t *testing.T) {
	tbl := New(1024, 42)
	for i := 1; i <= 1000; i++ {
		if !tbl.Insert(key(i), Location(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if got := tbl.Len(); got != 1000 {
		t.Fatalf("len = %d, want 1000", got)
	}
	for i := 1; i <= 1000; i++ {
		cands, probed := tbl.Search(key(i), nil)
		if probed < 1 || probed > 2 {
			t.Fatalf("probed %d buckets", probed)
		}
		found := false
		for _, c := range cands {
			if c == Location(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %d not found; candidates %v", i, cands)
		}
	}
	for i := 1; i <= 1000; i++ {
		if !tbl.Delete(key(i), Location(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if got := tbl.Len(); got != 0 {
		t.Fatalf("len after deletes = %d", got)
	}
}

// TestHashFormsMatchKeyForms: InsertHash, DeleteHash and SearchBufHash fed
// Hash(key, seed) do exactly what Insert, Delete and SearchBuf do with the
// key — two tables driven the two ways, past the load where displacement
// starts, hold the same entries in the same slots and answer alike.
func TestHashFormsMatchKeyForms(t *testing.T) {
	const seed = 42
	byKey, byHash := New(1024, seed), New(1024, seed)
	same := func(when string) {
		t.Helper()
		for b := range byKey.buckets {
			for s := range byKey.buckets[b].slots {
				if k, h := byKey.buckets[b].slots[s].Load(), byHash.buckets[b].slots[s].Load(); k != h {
					t.Fatalf("%s: bucket %d slot %d holds %#x by key, %#x by hash", when, b, s, k, h)
				}
			}
		}
	}
	for i := 1; i <= 900; i++ {
		if k, h := byKey.Insert(key(i), Location(i)), byHash.InsertHash(Hash(key(i), seed), Location(i)); k != h {
			t.Fatalf("insert %d: %v by key, %v by hash", i, k, h)
		}
	}
	same("after inserts")
	for i := 1; i <= 900; i += 3 {
		loc := Location(i + i%2) // half of them the wrong location
		if k, h := byKey.Delete(key(i), loc), byHash.DeleteHash(Hash(key(i), seed), loc); k != h {
			t.Fatalf("delete %d: %v by key, %v by hash", i, k, h)
		}
	}
	same("after deletes")
	for i := 1; i <= 1000; i++ {
		var kb, hb [MaxCandidates]Location
		kn, kp := byKey.SearchBuf(key(i), &kb)
		hn, hp := byKey.SearchBufHash(Hash(key(i), seed), &hb)
		if kn != hn || kp != hp || kb != hb {
			t.Fatalf("search %d: %v/%d by key, %v/%d by hash", i, kb[:kn], kp, hb[:hn], hp)
		}
	}
}

func TestSearchMissingKey(t *testing.T) {
	tbl := New(64, 1)
	tbl.Insert(key(1), 1)
	cands, _ := tbl.Search(key(999999), nil)
	for _, c := range cands {
		if c == 1 {
			// A signature collision giving a candidate is legal, but the
			// candidate must be rejectable by key comparison; just make sure
			// we did not somehow return a "confirmed" hit structure.
			t.Log("signature collision (acceptable)")
		}
	}
}

func TestDeleteWrongLocation(t *testing.T) {
	tbl := New(64, 1)
	tbl.Insert(key(1), 7)
	if tbl.Delete(key(1), 8) {
		t.Fatal("delete with wrong location must fail")
	}
	if !tbl.Delete(key(1), 7) {
		t.Fatal("delete with right location must succeed")
	}
	if tbl.Delete(key(1), 7) {
		t.Fatal("double delete must fail")
	}
}

func TestInsertInvalidLocationPanics(t *testing.T) {
	tbl := New(64, 1)
	for _, loc := range []Location{0, maxLocation + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(loc=%d) did not panic", loc)
				}
			}()
			tbl.Insert(key(1), loc)
		}()
	}
}

func TestHighLoadFactor(t *testing.T) {
	// Associativity-8 cuckoo tables should comfortably exceed 90% load.
	tbl := New(512, 7) // 4096 slots
	n := 0
	for i := 1; i <= 4096; i++ {
		if !tbl.Insert(key(i), Location(i)) {
			break
		}
		n++
	}
	if lf := float64(n) / 4096; lf < 0.9 {
		t.Fatalf("achieved load factor %.3f < 0.9 (inserted %d)", lf, n)
	}
	// All inserted keys must still be findable after the displacements.
	for i := 1; i <= n; i++ {
		cands, _ := tbl.Search(key(i), nil)
		found := false
		for _, c := range cands {
			if c == Location(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %d lost after displacement", i)
		}
	}
}

func TestFullTableInsertFails(t *testing.T) {
	tbl := New(1, 7) // single bucket pair collapses: 8 slots
	n := 0
	for i := 1; i <= 100; i++ {
		if tbl.Insert(key(i), Location(i)) {
			n++
		}
	}
	if n > SlotsPerBucket {
		t.Fatalf("single-bucket table accepted %d > %d entries", n, SlotsPerBucket)
	}
	st := tbl.StatsSnapshot()
	if st.FailedInserts == 0 {
		t.Fatal("expected failed inserts on a full table")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(sig uint16, locBits uint64) bool {
		loc := Location(locBits & maxLocation)
		s, l := unpack(pack(sig, loc))
		return s == sig && l == loc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSnapshot(t *testing.T) {
	tbl := New(1024, 3)
	for i := 1; i <= 100; i++ {
		tbl.Insert(key(i), Location(i))
	}
	tbl.Search(key(1), nil)
	tbl.Delete(key(1), 1)
	st := tbl.StatsSnapshot()
	if st.Inserts != 100 || st.Searches != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgInsertBuckets < 1 {
		t.Fatalf("avg insert buckets = %v, want >= 1", st.AvgInsertBuckets)
	}
}

func TestSearchProbesTheoretical(t *testing.T) {
	if got := SearchProbesTheoretical(2); got != 1.5 {
		t.Fatalf("2-function probes = %v, want 1.5 (paper §IV-B)", got)
	}
	if got := SearchProbesTheoretical(3); got != 2 {
		t.Fatalf("3-function probes = %v, want 2", got)
	}
}

func TestLoadFactor(t *testing.T) {
	tbl := New(64, 1)
	if tbl.LoadFactor() != 0 {
		t.Fatal("empty table load factor should be 0")
	}
	tbl.Insert(key(1), 1)
	if lf := tbl.LoadFactor(); lf <= 0 || lf > 1 {
		t.Fatalf("load factor = %v", lf)
	}
}

func TestHashDeterminism(t *testing.T) {
	a := hash64([]byte("hello"), 42)
	b := hash64([]byte("hello"), 42)
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if hash64([]byte("hello"), 42) == hash64([]byte("hello"), 43) {
		t.Fatal("seed ignored")
	}
	if hash64([]byte("hello"), 42) == hash64([]byte("hellp"), 42) {
		t.Fatal("suspicious collision on 1-byte difference")
	}
}

func TestConcurrentInsertSearch(t *testing.T) {
	tbl := New(8192, 11)
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i + 1
				if !tbl.Insert(key(id), Location(id)) {
					t.Errorf("insert %d failed", id)
					return
				}
				cands, _ := tbl.Search(key(id), nil)
				found := false
				for _, c := range cands {
					if c == Location(id) {
						found = true
					}
				}
				if !found {
					t.Errorf("key %d not visible to its own inserter", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := tbl.Len(); got != workers*perWorker {
		t.Fatalf("len = %d, want %d", got, workers*perWorker)
	}
}

func TestConcurrentDeleteDisjoint(t *testing.T) {
	tbl := New(8192, 13)
	const n = 8000
	for i := 1; i <= n; i++ {
		if !tbl.Insert(key(i), Location(i)) {
			t.Fatalf("setup insert %d failed", i)
		}
	}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w + 1; i <= n; i += workers {
				if !tbl.Delete(key(i), Location(i)) {
					t.Errorf("delete %d failed", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := tbl.Len(); got != 0 {
		t.Fatalf("len = %d after all deletes", got)
	}
}

func TestInsertDeleteChurnProperty(t *testing.T) {
	// Property: after any interleaving of insert/delete pairs, every live key
	// is findable and every deleted key's (key, loc) pair is gone.
	f := func(ops []uint16) bool {
		tbl := New(2048, 99)
		live := map[int]bool{}
		for _, op := range ops {
			id := int(op%500) + 1
			if live[id] {
				if !tbl.Delete(key(id), Location(id)) {
					return false
				}
				live[id] = false
			} else {
				if !tbl.Insert(key(id), Location(id)) {
					return false
				}
				live[id] = true
			}
		}
		for id, alive := range live {
			cands, _ := tbl.Search(key(id), nil)
			found := false
			for _, c := range cands {
				if c == Location(id) {
					found = true
				}
			}
			if found != alive {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	// Keep the table at a steady ~50% load regardless of b.N by deleting
	// the entry inserted window-size iterations earlier.
	tbl := New(1<<17, 1) // ~1M slots
	const window = 1 << 19
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(key(i+1), Location(uint64(i)%maxLocation+1))
		if i >= window {
			old := i - window
			tbl.Delete(key(old+1), Location(uint64(old)%maxLocation+1))
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	tbl := New(1<<16, 1)
	for i := 1; i <= 100000; i++ {
		tbl.Insert(key(i), Location(i))
	}
	var buf []Location
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = tbl.Search(key(i%100000+1), buf[:0])
	}
	_ = fmt.Sprint(len(buf))
}

// slotCount is the brute-force occupancy Len used to compute by scanning
// every slot; the O(1) counter must agree with it at quiescence.
func slotCount(t *Table) int {
	var n int
	for i := range t.buckets {
		for j := range t.buckets[i].slots {
			if t.buckets[i].slots[j].Load() != 0 {
				n++
			}
		}
	}
	return n
}

// TestLenMatchesSlotScanUnderChurn drives a small, nearly full table through
// seeded random inserts and deletes, so displacement (kicks) and failed
// inserts both happen, and checks Len against a slot scan throughout.
func TestLenMatchesSlotScanUnderChurn(t *testing.T) {
	const seed = 20261015
	rng := rand.New(rand.NewSource(seed))
	tbl := New(64, 5) // 512 slots
	live := map[int]bool{}
	failed := 0
	for op := 0; op < 8000; op++ {
		id := rng.Intn(1000) + 1 // ~800 live at equilibrium: inserts fail near full
		if live[id] && rng.Intn(4) == 0 {
			if !tbl.Delete(key(id), Location(id)) {
				t.Fatalf("seed %d op %d: delete %d failed", seed, op, id)
			}
			delete(live, id)
		} else if !live[id] {
			if tbl.Insert(key(id), Location(id)) {
				live[id] = true
			} else {
				failed++
			}
		}
		if op%97 == 0 {
			if got, want := tbl.Len(), slotCount(tbl); got != want || got != len(live) {
				t.Fatalf("seed %d op %d: Len %d, slot scan %d, live %d", seed, op, got, want, len(live))
			}
		}
	}
	st := tbl.StatsSnapshot()
	if st.Kicks == 0 || failed == 0 {
		t.Fatalf("churn exercised kicks=%d failed inserts=%d; want both > 0", st.Kicks, failed)
	}
	if got, want := tbl.Len(), slotCount(tbl); got != want {
		t.Fatalf("final Len %d, slot scan %d", got, want)
	}
}

// TestLenMatchesSlotScanConcurrent has writers insert and delete disjoint
// key ranges at once (kicks race deletes across ranges), then compares Len
// with a slot scan and with the writers' own tally.
func TestLenMatchesSlotScanConcurrent(t *testing.T) {
	tbl := New(128, 17) // 1024 slots, ~800 live keys: kicks and failed inserts
	const workers = 4
	const perWorker = 400
	var wg sync.WaitGroup
	kept := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			live := map[int]bool{}
			for op := 0; op < 5000; op++ {
				id := w*perWorker + rng.Intn(perWorker) + 1
				if live[id] {
					if !tbl.Delete(key(id), Location(id)) {
						t.Errorf("delete %d failed", id)
						return
					}
					delete(live, id)
				} else if tbl.Insert(key(id), Location(id)) {
					live[id] = true
				}
			}
			kept[w] = len(live)
		}()
	}
	wg.Wait()
	want := 0
	for _, k := range kept {
		want += k
	}
	if got, scan := tbl.Len(), slotCount(tbl); got != scan || got != want {
		t.Fatalf("Len %d, slot scan %d, writers kept %d", got, scan, want)
	}
}

// TestKickAdvancesVersionBeforeClear pins the miss proof against
// displacement: between a kick's copy of a victim into its alternate bucket
// and the clear of its old slot, Version must already be above its value
// before the Insert began. Otherwise a reader that scanned the new bucket
// before the copy and the old one after the clear sees an unchanged version
// and reports a resident key as a genuine miss.
func TestKickAdvancesVersionBeforeClear(t *testing.T) {
	tbl := New(8, 3) // 64 slots: inserts near full must displace
	var pre uint64
	kicks, stale := 0, 0
	tbl.testKick = func() {
		kicks++
		if tbl.Version() <= pre {
			stale++
		}
	}
	for id := 1; id <= 64 && kicks < 8; id++ {
		pre = tbl.Version()
		tbl.Insert(key(id), Location(id))
	}
	if kicks == 0 {
		t.Fatal("no insert displaced a victim; the table is too roomy to test kicks")
	}
	if stale > 0 {
		t.Fatalf("%d of %d kicks cleared the victim's old slot with Version unchanged since the insert began", stale, kicks)
	}
}
