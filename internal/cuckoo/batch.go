package cuckoo

import "sync/atomic"

// Wide batched search — the table's GPU-shaped operator (paper §V, Fig 6).
//
// A GPU runs IN(Search) over a wide batch by giving every lane one key and
// letting the memory system overlap all the lanes' bucket fetches. The CPU
// analogue is software pipelining: instead of finishing one key's probe
// (hash → bucket 1 → bucket 2) before starting the next — a chain of
// dependent cache misses — SearchBatch sweeps the whole batch in waves:
//
//	wave 1:  split every key's hash into (bucket, signature) and gather the
//	         address of its primary bucket line
//	touch:   load one word from every gathered line
//	wave 2:  scan every key's primary bucket
//	wave 3:  gather the alternate bucket line of every key whose primary
//	         bucket held no candidate, touch those lines, scan those buckets
//
// Primary first. A key's alternate bucket is probed only when its primary
// bucket yields no candidate, so a present key in its primary bucket (most
// keys) costs one bucket line, not two. Its candidates are then a prefix of
// SearchBuf's: the alternate bucket's matches are left out. A caller that
// finds none of a key's candidates verifies must therefore not read that as
// proof of a miss; it re-probes both buckets (the store's batched GET does).
//
// The scan waves alone do not overlap their misses. Each slot test branches
// on the word just loaded (empty? signature match?), and a cold bucket's
// branches cannot resolve until its line arrives; when one mispredicts, the
// core squashes every later key's load it had started past it, so the sweep
// pays about one DRAM round trip per key, like the scalar probe. The touch
// is the fix, and it is two loops: the first resolves every line's address
// into the scratch (arithmetic on cached metadata only), the second is a
// loop of bare loads from that list that branches on none of them (the
// words are summed into the scratch). With no address arithmetic between
// them, the loads fill the reorder buffer and the whole batch's line
// fetches are in flight at once; the scan waves that follow then mispredict
// on cached lines, which is cheap. This is the batched-probe design of the
// coupled-architecture hash-join literature. Output uses a fixed stride per
// key — the flat, GPU-friendly result layout — so no per-key compaction
// serializes the waves.
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
	bk    []uint64 // per key: the bucket the current scan wave probes
	sig   []uint16
	rest  []int32          // keys whose primary bucket held no candidate
	lines []*atomic.Uint64 // the touch's gathered line addresses
	// sink takes the touch loads, so they have a use and write nothing
	// shared.
	sink uint64
}

// grow sizes the wave arrays for n keys.
func (sc *SearchScratch) grow(n int) {
	if cap(sc.bk) < n {
		sc.bk = make([]uint64, n)
		sc.sig = make([]uint16, n)
		sc.rest = make([]int32, n)
		sc.lines = make([]*atomic.Uint64, n)
	}
	sc.bk = sc.bk[:n]
	sc.sig = sc.sig[:n]
	sc.rest = sc.rest[:n]
	sc.lines = sc.lines[:n]
}

// TouchLines loads every word lines lists and returns their sum. It branches
// on none of them, so all the lines' misses can be in flight at once; callers
// keep the sum only to give the loads a use. The store's batched read touches
// slab chunk lines with it too.
func TouchLines(lines []*atomic.Uint64) uint64 {
	var sum uint64
	for _, w := range lines {
		sum += w.Load()
	}
	return sum
}

// SearchBatch probes the table for len(hashes) precomputed key hashes (see
// Hash) in software-pipelined waves. Key i's candidate locations are written
// to cands[i*MaxCandidates : i*MaxCandidates+counts[i]]. They are its
// primary bucket's matching slots in order when there are any; only a key
// whose primary bucket has no match is probed in its alternate bucket, whose
// matches it then gets. So each key's candidates are a prefix of
// SearchBufHash's, and equal to them whenever the primary bucket has no
// match. cands must have length ≥ len(hashes)*MaxCandidates and counts
// length ≥ len(hashes). It returns the total number of buckets probed.
//
// Like SearchBuf, the results are candidates: the caller verifies each with
// a full key comparison (the KC task).
func (t *Table) SearchBatch(hashes []uint64, sc *SearchScratch, cands []Location, counts []int32) (probed int) {
	n := len(hashes)
	if n == 0 {
		return 0
	}
	sc.grow(n)
	bk, sigs, rest, lines := sc.bk, sc.sig, sc.rest, sc.lines
	// Wave 1 — hash split and gather: pure arithmetic, no memory traffic.
	for i, h := range hashes {
		b, sig := t.split(h)
		bk[i], sigs[i] = b, sig
		lines[i] = &t.buckets[b].slots[0]
	}
	sink := TouchLines(lines)
	// Wave 2 — primary buckets, now mostly cached: a slot test that
	// mispredicts costs a pipeline refill, not a DRAM round trip.
	for i := 0; i < n; i++ {
		counts[i] = int32(t.scanBucketStride(bk[i], sigs[i], cands, i*MaxCandidates))
	}
	// Wave 3 — alternate buckets of the keys wave 2 found nothing for:
	// gather, touch, scan. bk[i] becomes the alternate bucket.
	m := 0
	for i := 0; i < n; i++ {
		if counts[i] != 0 {
			continue
		}
		b2 := t.altBucket(bk[i], sigs[i])
		if b2 == bk[i] {
			continue
		}
		bk[i] = b2
		rest[m] = int32(i)
		lines[m] = &t.buckets[b2].slots[0]
		m++
	}
	sc.sink = sink + TouchLines(lines[:m])
	for _, i := range rest[:m] {
		counts[i] = int32(t.scanBucketStride(bk[i], sigs[i], cands, int(i)*MaxCandidates))
	}
	t.searches.Add(uint64(n))
	return n + m
}

// scanBucketStride is scanBucketInto writing into a stride region of a
// shared arena: matches land at cands[base:], returning their count.
func (t *Table) scanBucketStride(b uint64, sig uint16, cands []Location, base int) int {
	n := 0
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
