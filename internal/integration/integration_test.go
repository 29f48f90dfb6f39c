// Package integration ties the substrates together the way the real system
// does: concurrent writers sharing one cuckoo index, and a live workload
// driving the store to its eviction steady state. These tests are about
// cross-module correctness, not timing.
package integration

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/workload"
)

func key(i int) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

// TestConcurrentIndexUpdatesFromBothSides mixes inserts from several writers
// on the shared cuckoo index — the coupled architecture's concurrency
// discipline (atomic CAS on every side).
func TestConcurrentIndexUpdatesFromBothSides(t *testing.T) {
	tbl := cuckoo.New(1<<14, 9)
	const n = 4096
	// One goroutine inserts odd keys while four insert the even ones.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < n; i += 2 {
			if !tbl.Insert(key(i), cuckoo.Location(i)) {
				t.Errorf("odd insert %d failed", i)
				return
			}
		}
	}()
	const evenWriters = 4
	var wg sync.WaitGroup
	for w := 0; w < evenWriters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < n/2; j += evenWriters {
				i := 2 * (j + 1)
				if !tbl.Insert(key(i), cuckoo.Location(i)) {
					t.Errorf("even insert %d failed", i)
				}
			}
		}()
	}
	wg.Wait()
	<-done
	// Everything findable.
	for i := 1; i <= n; i++ {
		if i == n { // key(n) == 2*(n/2) inserted; key range check
			break
		}
		cands, _ := tbl.Search(key(i), nil)
		ok := false
		for _, c := range cands {
			if c == cuckoo.Location(i) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("key %d missing after concurrent inserts", i)
		}
	}
}

// TestWorkloadDrivesStoreToSteadyState checks the §II-C2 invariant end to
// end: once the arena is full, every SET produces exactly one insert and at
// least one delete (eviction or overwrite), keeping live-object count flat.
func TestWorkloadDrivesStoreToSteadyState(t *testing.T) {
	st := store.New(store.Config{MemoryBytes: 2 << 20, IndexEntries: 100000, Seed: 10})
	spec, _ := workload.SpecByName("K16-G50-U")
	gen := workload.NewGenerator(spec, 1<<20, 11)

	// Drive until full.
	for i := 0; i < 60000; i++ {
		q := gen.Next(false)
		if q.Op == proto.OpSet {
			st.Set(q.Key, q.Value)
		}
	}
	liveBefore := st.StatsSnapshot().LiveObjects
	evBefore := st.StatsSnapshot().Evictions
	for i := 0; i < 10000; i++ {
		q := gen.Next(false)
		if q.Op == proto.OpSet {
			st.Set(q.Key, q.Value)
		}
	}
	after := st.StatsSnapshot()
	if after.Evictions == evBefore {
		t.Fatal("no evictions at steady state")
	}
	drift := after.LiveObjects - liveBefore
	if drift < -100 || drift > 100 {
		t.Fatalf("live objects drifted by %d at steady state", drift)
	}
}
