// Package integration ties the substrates together the way the real system
// does: the SIMT gang executor driving actual index operations on the real
// store with CPU workers stealing from the same tag array, and the
// adaptation loop over a live workload. These tests are about cross-module correctness, not timing.
package integration

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/gpu"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/workload"
)

func key(i int) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

// TestGPUGangSearchesRealStore runs the IN.Search kernel over a real batch on
// the wavefront executor, exactly as the GPU stage does: every GET must find
// its object via Search → KC → RD performed inside the kernel.
func TestGPUGangSearchesRealStore(t *testing.T) {
	st := store.New(store.Config{MemoryBytes: 16 << 20, IndexEntries: 100000, Seed: 5})
	const n = 8192
	for i := 0; i < n; i++ {
		if _, _, err := st.Set(key(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	exec := gpu.NewExecutor(8)
	var found atomic.Int64
	exec.Run(n, func(i int) {
		// Per-lane scratch: no sharing between lanes.
		cands := st.IndexSearch(key(i), nil)
		for _, loc := range cands {
			if st.KeyCompare(loc, key(i)) {
				if v, ok := st.ReadValue(loc); ok && len(v) > 0 {
					found.Add(1)
				}
				break
			}
		}
	})
	if got := found.Load(); got != n {
		t.Fatalf("found %d of %d objects via GPU gang", got, n)
	}
}

// TestWorkStealingCoRunOnStore is the paper's §III-B3 in miniature: the CPU
// and the GPU gang process one batch of real GETs through the shared tag
// array; every query is answered exactly once.
func TestWorkStealingCoRunOnStore(t *testing.T) {
	st := store.New(store.Config{MemoryBytes: 16 << 20, IndexEntries: 100000, Seed: 6})
	const n = 4096
	for i := 0; i < n; i++ {
		st.Set(key(i), []byte("v"))
	}
	answered := make([]atomic.Int32, n)
	gpuDone, cpuDone := gpu.CoRun(n, 4, 2, func(i int) {
		cands := st.IndexSearch(key(i), nil)
		for _, loc := range cands {
			if st.KeyCompare(loc, key(i)) {
				answered[i].Add(1)
				break
			}
		}
	})
	if gpuDone+cpuDone != n {
		t.Fatalf("co-run covered %d+%d of %d", gpuDone, cpuDone, n)
	}
	for i := range answered {
		if answered[i].Load() != 1 {
			t.Fatalf("query %d answered %d times", i, answered[i].Load())
		}
	}
}

// TestConcurrentIndexUpdatesFromBothSides mixes GPU-gang inserts with
// CPU-side deletes on the shared cuckoo index — the coupled architecture's
// concurrency discipline (atomic CAS both sides).
func TestConcurrentIndexUpdatesFromBothSides(t *testing.T) {
	tbl := cuckoo.New(1<<14, 9)
	const n = 4096
	// GPU gang inserts even keys; CPU inserts odd keys concurrently.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < n; i += 2 {
			if !tbl.Insert(key(i), cuckoo.Location(i)) {
				t.Errorf("cpu insert %d failed", i)
				return
			}
		}
	}()
	exec := gpu.NewExecutor(4)
	exec.Run(n/2, func(j int) {
		i := 2 * (j + 1)
		if !tbl.Insert(key(i), cuckoo.Location(i)) {
			t.Errorf("gpu insert %d failed", i)
		}
	})
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
