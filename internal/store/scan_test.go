package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func orderedStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	cfg.Ordered = true
	return New(cfg)
}

// TestScanMatchesModelQuiescent pins the basic contract on a quiet store:
// ascending order, [start,end) bounds, limit, and pagination via
// last-key+\x00 cursors — against a sorted reference model.
func TestScanMatchesModelQuiescent(t *testing.T) {
	s := orderedStore(t, Config{MemoryBytes: 8 << 20, IndexEntries: 1 << 12})
	// The first scan builds the tree; scanning the empty store makes the
	// load below maintain it, so its splits and merges are counted.
	s.Scan(nil, nil, 0, func(k, v []byte) bool { return true })
	model := map[string]string{}
	for i := 0; i < 400; i++ {
		k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%04d", i)
		if _, _, err := s.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("key-%04d", i*5)
		s.Delete([]byte(k))
		delete(model, k)
	}
	sorted := make([]string, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	// Full scan == full model, in order.
	var got []string
	n, ok := s.Scan(nil, nil, 0, func(k, v []byte) bool {
		got = append(got, string(k))
		if model[string(k)] != string(v) {
			t.Fatalf("key %s: scan saw %q, want %q", k, v, model[string(k)])
		}
		return true
	})
	if !ok || n != len(sorted) {
		t.Fatalf("full scan: n=%d ok=%v, want %d", n, ok, len(sorted))
	}
	for i, k := range got {
		if k != sorted[i] {
			t.Fatalf("order broken at %d: %q vs %q", i, k, sorted[i])
		}
	}

	// Bounded scan matches the model slice.
	lo, hi := "key-0100", "key-0300"
	want := 0
	for _, k := range sorted {
		if k >= lo && k < hi {
			want++
		}
	}
	if n, _ := s.Scan([]byte(lo), []byte(hi), 0, func(k, v []byte) bool { return true }); n != want {
		t.Fatalf("bounded scan n=%d want %d", n, want)
	}

	// Paginate with limit 7 using last-key+\x00 cursors; the concatenation
	// must equal one unlimited scan.
	var paged []string
	start := []byte(nil)
	for {
		var last []byte
		n, _ := s.Scan(start, nil, 7, func(k, v []byte) bool {
			paged = append(paged, string(k))
			last = append(last[:0], k...)
			return true
		})
		if n == 0 {
			break
		}
		start = append(last, 0)
	}
	if len(paged) != len(sorted) {
		t.Fatalf("pagination saw %d keys, want %d", len(paged), len(sorted))
	}
	for i, k := range paged {
		if k != sorted[i] {
			t.Fatalf("pagination order broken at %d: %q vs %q", i, k, sorted[i])
		}
	}

	// The tree outgrew one node, so it split on the way up and
	// must merge on the way back down to empty.
	for _, k := range sorted {
		s.Delete([]byte(k))
	}
	if st := s.StatsSnapshot(); st.OrderedKeys != 0 || st.OrderedSplits < 4 || st.OrderedMerges < 4 {
		t.Fatalf("emptied store: %d ordered keys, %d splits, %d merges; want 0 keys and ≥ 4 of each",
			st.OrderedKeys, st.OrderedSplits, st.OrderedMerges)
	}
}

// TestScanCounters: each Scan adds the entries it visited and their key and
// value bytes to the store's counters, including the entry its fn stopped
// at, and a scan that visits nothing adds nothing.
func TestScanCounters(t *testing.T) {
	s := orderedStore(t, Config{MemoryBytes: 4 << 20})
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("sc-%03d", i))
		if _, _, err := s.Set(k, bytes.Repeat([]byte{'v'}, i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		start       string
		limit, stop int // stop: fn returns false at this entry (0: never)
	}{{"", 0, 0}, {"sc-050", 10, 0}, {"sc-020", 0, 7}, {"sc-zzz", 0, 0}} {
		before := s.StatsSnapshot()
		seen, nbytes := 0, 0
		n, _ := s.Scan([]byte(tc.start), nil, tc.limit, func(k, v []byte) bool {
			seen++
			nbytes += len(k) + len(v)
			return seen != tc.stop
		})
		st := s.StatsSnapshot()
		if n != seen || st.Scans-before.Scans != 1 ||
			st.ScanEntries-before.ScanEntries != uint64(seen) || st.ScanBytes-before.ScanBytes != uint64(nbytes) {
			t.Fatalf("scan from %q: returned %d, fn saw %d entries / %d bytes; counters moved %d scans, %d entries, %d bytes",
				tc.start, n, seen, nbytes, st.Scans-before.Scans, st.ScanEntries-before.ScanEntries, st.ScanBytes-before.ScanBytes)
		}
	}
}

// TestScanDisabled: a store without Config.Ordered refuses scans cleanly.
func TestScanDisabled(t *testing.T) {
	s := New(Config{MemoryBytes: 1 << 20})
	if s.Ordered() {
		t.Fatal("plain store reports ordered")
	}
	if sc := s.NewScanner(); sc != nil {
		t.Fatal("plain store built a scanner")
	}
	if n, ok := s.Scan(nil, nil, 0, func(k, v []byte) bool { return true }); ok || n != 0 {
		t.Fatalf("scan on plain store: n=%d ok=%v", n, ok)
	}
	if st := s.StatsSnapshot(); st.OrderedKeys != 0 {
		t.Fatalf("OrderedKeys = %d on plain store", st.OrderedKeys)
	}
}

// TestScanSnapshotIsolation is the snapshot pin: a Scanner captured before a wave
// of writes keeps serving the captured KEY SET — keys inserted later never
// appear, keys deleted later are skipped (not replaced by garbage), and
// surviving keys read fresh values. This fails on any implementation that
// scans the live tree instead of a snapshot.
func TestScanSnapshotIsolation(t *testing.T) {
	s := orderedStore(t, Config{MemoryBytes: 8 << 20, IndexEntries: 1 << 12})
	const n = 300
	for i := 0; i < n; i++ {
		if _, _, err := s.Set([]byte(fmt.Sprintf("old-%04d", i)), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	sc := s.NewScanner()

	// After the snapshot: delete a third, overwrite a third, and insert a
	// fresh disjoint key range.
	for i := 0; i < n; i += 3 {
		s.Delete([]byte(fmt.Sprintf("old-%04d", i)))
	}
	for i := 1; i < n; i += 3 {
		if _, _, err := s.Set([]byte(fmt.Sprintf("old-%04d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, _, err := s.Set([]byte(fmt.Sprintf("new-%04d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]string{}
	sc.Scan(nil, nil, 0, func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	})
	for k, v := range seen {
		if !bytes.HasPrefix([]byte(k), []byte("old-")) {
			t.Fatalf("snapshot scan leaked post-snapshot key %q", k)
		}
		var i int
		fmt.Sscanf(k, "old-%04d", &i)
		switch i % 3 {
		case 0:
			t.Fatalf("deleted key %q still scanned (value %q)", k, v)
		case 1:
			if v != "v1" {
				t.Fatalf("overwritten key %q: scan saw %q, want fresh v1", k, v)
			}
		case 2:
			if v != "v0" {
				t.Fatalf("untouched key %q: scan saw %q", k, v)
			}
		}
	}
	wantSurvivors := n - (n+2)/3
	if len(seen) != wantSurvivors {
		t.Fatalf("snapshot scan saw %d keys, want %d survivors", len(seen), wantSurvivors)
	}

	// A fresh scan sees the new world.
	fresh := 0
	s.Scan([]byte("new-"), []byte("new-\xff"), 0, func(k, v []byte) bool { fresh++; return true })
	if fresh != n {
		t.Fatalf("fresh scan saw %d new keys, want %d", fresh, n)
	}
}

// TestScanEquivalenceUnderChurn is the equivalence/linearizability suite: a
// stable keyspace region coexists with a churned one (SET/DEL overwrite storm
// from several writers). Every scan, concurrent with the storm, must return
// a sorted, duplicate-free key sequence; must always contain every stable key
// with its exact value; and every churned value observed must be one some
// writer actually wrote for that key (seqlock: never torn, never foreign).
func TestScanEquivalenceUnderChurn(t *testing.T) {
	s := orderedStore(t, Config{MemoryBytes: 16 << 20, IndexEntries: 1 << 13})
	const stable, churn = 200, 200
	stableVals := map[string]string{}
	for i := 0; i < stable; i++ {
		k, v := fmt.Sprintf("s%04d", i), fmt.Sprintf("stable-%04d", i)
		if _, _, err := s.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		stableVals[k] = v
	}
	for i := 0; i < churn; i++ {
		if _, _, err := s.Set([]byte(fmt.Sprintf("c%04d", i)), []byte(fmt.Sprintf("c%04d-gen-0", i))); err != nil {
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
			for gen := 1; !stop.Load(); gen++ {
				i := rng.Intn(churn)
				k := fmt.Sprintf("c%04d", i)
				if gen%7 == 0 {
					s.Delete([]byte(k))
				} else if _, _, err := s.Set([]byte(k), []byte(fmt.Sprintf("%s-gen-%d", k, gen))); err != nil {
					t.Errorf("set: %v", err)
					return
				}
			}
		}(w)
	}

	for pass := 0; pass < 30; pass++ {
		var prev []byte
		seenStable := 0
		s.Scan(nil, nil, 0, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("pass %d: order violation %q >= %q", pass, prev, k)
				return false
			}
			prev = append(prev[:0], k...)
			switch k[0] {
			case 's':
				seenStable++
				if stableVals[string(k)] != string(v) {
					t.Errorf("stable key %q: scan saw %q", k, v)
					return false
				}
			case 'c':
				// Value must be an intact generation write for THIS key.
				if !bytes.HasPrefix(v, k) || !bytes.Contains(v, []byte("-gen-")) {
					t.Errorf("churn key %q: torn/foreign value %q", k, v)
					return false
				}
			default:
				t.Errorf("unknown key %q", k)
				return false
			}
			return true
		})
		if seenStable != stable {
			t.Errorf("pass %d: saw %d stable keys, want %d", pass, seenStable, stable)
			break
		}
	}
	stop.Store(true)
	writers.Wait()
}

// TestScanUniformValuesNeverTorn attacks the seqlock-slab interaction head
// on: every write of a key stores a value of one repeated byte, with writers
// flipping the byte as fast as they can on the same small key set. A torn
// read (half old bytes, half new) is a mixed-byte value — scans must never
// produce one.
func TestScanUniformValuesNeverTorn(t *testing.T) {
	s := orderedStore(t, Config{MemoryBytes: 8 << 20, IndexEntries: 1 << 12})
	const keys = 32
	const valLen = 512
	for i := 0; i < keys; i++ {
		if _, _, err := s.Set([]byte(fmt.Sprintf("u%02d", i)), bytes.Repeat([]byte{'a'}, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for gen := 0; !stop.Load(); gen++ {
				b := byte('a' + (gen % 26))
				k := fmt.Sprintf("u%02d", (w*7+gen)%keys)
				if _, _, err := s.Set([]byte(k), bytes.Repeat([]byte{b}, valLen)); err != nil {
					t.Errorf("set: %v", err)
					return
				}
			}
		}(w)
	}
	for pass := 0; pass < 50; pass++ {
		s.Scan(nil, nil, 0, func(k, v []byte) bool {
			if len(v) != valLen {
				t.Errorf("key %q: truncated value (%d bytes)", k, len(v))
				return false
			}
			for _, b := range v {
				if b != v[0] {
					t.Errorf("key %q: TORN value (mixed %q and %q)", k, v[0], b)
					return false
				}
			}
			return true
		})
	}
	stop.Store(true)
	writers.Wait()
}

// TestScanEvictionSafety runs scans against a store small enough that every
// writer SET evicts something: snapshot locations go stale constantly and
// chunks are recycled under the scanner's feet. Values embed their key, so a
// scan reading reclaimed-and-reused memory would surface a mismatched
// prefix. Exercises the ReadIfMatch → point-lookup fallback path.
func TestScanEvictionSafety(t *testing.T) {
	s := orderedStore(t, Config{MemoryBytes: 256 << 10, IndexEntries: 1 << 10})
	// Pre-fill far past the arena budget so eviction pressure exists from the
	// first concurrent pass (4096 keys × ~210 B ≫ 256 KiB).
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("ev-%05d", i)
		v := fmt.Sprintf("%s|%s", k, bytes.Repeat([]byte{'p'}, 200))
		if _, _, err := s.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.StatsSnapshot().Evictions == 0 {
		t.Fatal("pre-fill produced no evictions — shrink the arena")
	}
	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for !stop.Load() {
				k := fmt.Sprintf("ev-%05d", rng.Intn(4096))
				v := fmt.Sprintf("%s|%s", k, bytes.Repeat([]byte{'p'}, 200))
				if _, _, err := s.Set([]byte(k), []byte(v)); err != nil {
					t.Errorf("set: %v", err)
					return
				}
			}
		}(w)
	}
	for pass := 0; pass < 40; pass++ {
		s.Scan(nil, nil, 0, func(k, v []byte) bool {
			if !bytes.HasPrefix(v, k) {
				t.Errorf("key %q resolved foreign value %q...", k, v[:min(len(v), 16)])
				return false
			}
			return true
		})
	}
	stop.Store(true)
	writers.Wait()
	st := s.StatsSnapshot()
	if st.Scans == 0 || st.ScanEntries == 0 || st.ScanBytes == 0 {
		t.Fatalf("scan counters dead: %+v", st)
	}
	// Once quiescent, the ordered index must hold exactly the distinct live
	// keys (eviction victims were retired from both indexes). Distinct, not
	// object count: racing overwrites of one key can strand a duplicate arena
	// object, which the point-read path already tolerates.
	distinct := map[string]bool{}
	s.Range(func(k, v []byte) bool { distinct[string(k)] = true; return true })
	if st2 := s.StatsSnapshot(); st2.OrderedKeys != len(distinct) {
		t.Fatalf("ordered index has %d keys, arena has %d distinct live keys", st2.OrderedKeys, len(distinct))
	}
	// And the same keys, each bound to its current location: overwrites store
	// into tree entries in place, so a scan of the quiescent store must find
	// every key through the cuckoo index and never need the fallback lookup.
	n, _ := s.Scan(nil, nil, 0, func(k, v []byte) bool {
		if _, ok := s.Get(k); !ok || !distinct[string(k)] {
			t.Errorf("ordered index holds %q, which the cuckoo index or arena does not", k)
		}
		return true
	})
	if n != len(distinct) {
		t.Fatalf("quiescent scan returned %d keys, want %d", n, len(distinct))
	}
	if fb := s.StatsSnapshot().ScanFallbacks - st.ScanFallbacks; fb != 0 {
		t.Fatalf("quiescent scan of %d keys fell back %d times: tree locations are stale", n, fb)
	}
}
