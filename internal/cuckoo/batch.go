package cuckoo

// Wide batched search — the table's GPU-shaped operator (paper §V, Fig 6).
//
// A GPU runs IN(Search) over a wide batch by giving every lane one key and
// letting the memory system overlap all the lanes' bucket fetches. The CPU
// analogue is software pipelining: instead of finishing one key's probe
// (hash → bucket 1 → bucket 2) before starting the next — a chain of
// dependent cache misses — SearchBatch sweeps the whole batch in waves:
//
//	wave 1: split every key's hash into (bucket, signature)
//	touch:  load one word of every key's primary and alternate bucket line
//	wave 2: scan every key's primary bucket
//	wave 3: scan every key's alternate bucket
//
// The scan waves alone do not overlap their misses. Each slot test branches
// on the word just loaded (empty? signature match?), and a cold bucket's
// branches cannot resolve until its line arrives; when one mispredicts, the
// core squashes every later key's load it had started past it, so the sweep
// pays about one DRAM round trip per key, like the scalar probe. The touch
// wave is the fix: it loads one word per home-bucket line and branches on
// none of them (the words are summed into the scratch), so nothing is
// squashed and the whole batch's line fetches are in flight at once. The
// scan waves that follow then mispredict on cached lines, which is cheap.
// This is the batched-probe design of the coupled-architecture hash-join
// literature. Output uses a fixed stride per key — the flat, GPU-friendly
// result layout — so no per-key compaction serializes the waves.
//
// Concurrency: each slot is still read with a single atomic load, exactly
// like SearchBuf. A batch is not a snapshot — entries may move between a
// key's two buckets (displacement) while the wave sweep is in flight, which
// can hide a live key from one probe. Callers that must distinguish a
// genuine miss therefore bracket the whole batch with Version(): one
// amortized check per wave sweep instead of one per key (see the store's
// batched GET).

// SearchScratch holds SearchBatch's per-wave working arrays so steady-state
// batches allocate nothing. The zero value is ready to use; one scratch may
// be reused across batches (and across tables) but not concurrently.
type SearchScratch struct {
	b1, b2 []uint64
	sig    []uint16
	// sink takes the touch wave's loads, so they have a use and write
	// nothing shared.
	sink uint64
}

// grow sizes the wave arrays for n keys.
func (sc *SearchScratch) grow(n int) {
	if cap(sc.b1) < n {
		sc.b1 = make([]uint64, n)
		sc.b2 = make([]uint64, n)
		sc.sig = make([]uint16, n)
	}
	sc.b1 = sc.b1[:n]
	sc.b2 = sc.b2[:n]
	sc.sig = sc.sig[:n]
}

// SearchBatch probes the table for len(hashes) precomputed key hashes (see
// Hash) in software-pipelined waves. Key i's candidate locations are
// written to cands[i*MaxCandidates : i*MaxCandidates+counts[i]] — candidate
// order per key matches SearchBufHash exactly (primary bucket slots in
// order, then alternate bucket slots). cands must have length ≥
// len(hashes)*MaxCandidates and counts length ≥ len(hashes). It returns the
// total number of buckets probed.
//
// Like SearchBuf, the results are candidates: the caller verifies each with
// a full key comparison (the KC task).
func (t *Table) SearchBatch(hashes []uint64, sc *SearchScratch, cands []Location, counts []int32) (probed int) {
	n := len(hashes)
	if n == 0 {
		return 0
	}
	sc.grow(n)
	b1, b2, sigs := sc.b1, sc.b2, sc.sig
	// Wave 1 — hash split: pure arithmetic, no memory traffic. Materializing
	// every key's home buckets up front is what lets the touch wave make
	// only independent loads.
	for i, h := range hashes {
		b, sig := t.split(h)
		b1[i], sigs[i] = b, sig
		b2[i] = t.altBucket(b, sig)
	}
	// Touch wave: one atomic load per home-bucket line, with no branch on
	// what it loads, so every key's fetches are in flight together.
	var sink uint64
	for i := 0; i < n; i++ {
		sink += t.buckets[b1[i]].slots[0].Load() + t.buckets[b2[i]].slots[0].Load()
	}
	sc.sink = sink
	probed = n
	// Wave 2 — primary buckets, now mostly cached: a slot test that
	// mispredicts costs a pipeline refill, not a DRAM round trip.
	for i := 0; i < n; i++ {
		counts[i] = int32(t.scanBucketStride(b1[i], sigs[i], cands, i*MaxCandidates, 0))
	}
	// Wave 3 — alternate buckets, appended after each key's primary matches.
	for i := 0; i < n; i++ {
		if b2[i] == b1[i] {
			continue
		}
		probed++
		counts[i] = int32(t.scanBucketStride(b2[i], sigs[i], cands, i*MaxCandidates, int(counts[i])))
	}
	t.searches.Add(uint64(n))
	return probed
}

// scanBucketStride is scanBucketInto writing into a stride region of a
// shared arena: matches land at cands[base+n:], returning the new per-key
// count.
func (t *Table) scanBucketStride(b uint64, sig uint16, cands []Location, base, n int) int {
	bk := &t.buckets[b]
	for i := range bk.slots {
		e := bk.slots[i].Load()
		if e == 0 {
			continue
		}
		s, loc := unpack(e)
		if s == sig {
			cands[base+n] = loc
			n++
		}
	}
	return n
}
