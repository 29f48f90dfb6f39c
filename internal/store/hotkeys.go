package store

// Skew-aware hot-key fast path (paper §IV-B: key-popularity skew means a
// handful of keys absorb most GETs under Zipf workloads).
//
// A hotTable is a small, cache-resident, direct-mapped side table of sampled
// hot keys. A GET checks it before the cuckoo probe: a hit serves the value
// with zero index memory traffic — no bucket walk, no candidate verify — which
// is exactly the IN(Search) saving the cost model prices as HotHitPortion
// (task.ForTask). The table is strictly an accelerator: every entry is a
// redundant copy of an object that is also live in the arena, and losing an
// entry (collision, invalidation, race) only means the GET takes the normal
// probe path.
//
// Correctness protocol. Entries are immutable snapshots {hv, key, val,
// handle}; the slot array holds atomic pointers. Two rules keep a stale value
// from ever being served:
//
//   - Writers invalidate AFTER mutating the index. Every path that changes a
//     key's binding — Set (own key and the eviction victim), Delete,
//     IndexInsert, IndexDelete — first applies the index mutation (which
//     bumps the shard's index version) and then clears the key's slot.
//
//   - Readers promote with publish-then-recheck. A sampled hit publishes a
//     not-yet-servable entry (ready false: lookup skips it), then proves no
//     writer raced the promotion: the shard's index version must equal the
//     version captured before the verified copy, AND the key must still
//     resolve to the same slab handle. Only when both hold does it CAS a
//     servable copy over its own entry; either check failing, it clears it.
//     Publishing a servable entry first would let a reader serve it in the
//     window before the recheck rejects it.
//
//   - Writers invalidate until the slot no longer holds the key. A single
//     Load+CAS can lose to a promoter swapping in its servable copy between
//     the two, which would leave that copy standing after the write
//     completed; retrying the CAS clears whichever entry is there.
//
// Why both recheck halves are needed: a promotion that raced a writer either
// published before the writer's invalidate (the writer clears it, so the
// promoter's ready CAS fails) or after (the writer's index mutation is then
// visible to the recheck). The handle re-lookup catches values copied from
// stale candidates collected by an earlier pipeline stage (the overwrite
// predates the version capture); the version check catches handle reuse —
// free + realloc + reinsert of the same handle for the same key cannot
// happen without an index mutation in the recheck window. Values in the arena are written once per allocation, so
// "key still maps to handle h" plus "val is a validated copy of h" proves val
// is current.
//
// The recheck costs one index probe, paid only on sampled promotions
// (1 in hotSampleInterval hits), never on the serving fast path.

import (
	"bytes"
	"sync/atomic"

	"repro/internal/cuckoo"
	"repro/internal/slab"
	"repro/internal/stats"
)

// hotSampleInterval is the hit-sampling rate for promotion: one verified GET
// hit in every hotSampleInterval attempts a promotion. Sampling keeps the
// promotion recheck (an extra index probe) and the slot-write cache traffic
// off the common path while still converging on the true hot set within a few
// thousand requests — genuinely hot keys recur often enough that a 1/64
// sample catches them almost immediately, and one-off keys usually never hit
// a sample tick.
const hotSampleInterval = 64

// hotMaxValue bounds promoted value sizes: the table's win is serving from
// cache, so entries larger than a few cache lines would evict the very
// residency the fast path depends on. Large objects stay on the probe path
// (where the CPU's prefetcher already does well, §V-C).
const hotMaxValue = 1024

// hotEntry is an immutable hot-key snapshot. key and val are private copies;
// h is the slab handle the value was copied from, kept so hot hits can still
// Touch the object — otherwise serving from the side table would leave the
// object's CLOCK reference bit and access counter unset and the allocator
// would evict the hottest objects as cold.
type hotEntry struct {
	hv    uint64
	h     slab.Handle
	si    int
	key   []byte
	val   []byte
	ready bool // servable: false while its promotion's recheck runs
}

// hotTable is the direct-mapped slot array. Slots is a power of two; a key
// hashes to slot hv&mask. Collisions simply overwrite (direct-mapped): under
// Zipf the few genuinely hot keys win the slots by recurrence.
type hotTable struct {
	mask  uint64
	slots []atomic.Pointer[hotEntry]
	tick  atomic.Uint64 // promotion sampling counter
	hits  stats.Counter // GETs served from the table
}

func newHotTable(slots int) *hotTable {
	n := 1
	for n < slots {
		n <<= 1
	}
	return &hotTable{
		mask:  uint64(n - 1),
		slots: make([]atomic.Pointer[hotEntry], n),
	}
}

// lookup returns the entry for key, or nil. One load, one hash compare, one
// key compare — this is the per-GET fast-path cost.
func (t *hotTable) lookup(hv uint64, key []byte) *hotEntry {
	e := t.slots[hv&t.mask].Load()
	if e == nil || !e.ready || e.hv != hv || !bytes.Equal(e.key, key) {
		return nil
	}
	return e
}

// invalidate clears key's slot, ready or not, retrying until the slot no
// longer holds key: a promoter's ready CAS may replace the loaded entry
// between this Load and CAS. A promotion published after the caller's index
// mutation is caught by its own recheck instead.
func (t *hotTable) invalidate(hv uint64, key []byte) {
	slot := &t.slots[hv&t.mask]
	for {
		e := slot.Load()
		if e == nil || e.hv != hv || !bytes.Equal(e.key, key) || slot.CompareAndSwap(e, nil) {
			return
		}
	}
}

// sample reports whether this hit should attempt a promotion.
func (t *hotTable) sample() bool {
	return t.tick.Add(1)%hotSampleInterval == 0
}

// ---- Store-side integration ----

// hotServe checks the fast path for key. On a hit the cached value is
// appended to dst and the object is touched for CLOCK accounting. The caller
// owns the get/hit counters (the batch paths add hits in bulk).
func (s *Store) hotServe(hv uint64, key, dst []byte) ([]byte, bool) {
	e := s.hot.lookup(hv, key)
	if e == nil {
		return dst, false
	}
	s.hot.hits.Inc()
	// Touching a handle that was concurrently freed is harmless (it bumps a
	// recycled access counter at worst), and the entry is invalidated on the
	// very mutation that freed it.
	s.shards[e.si].alloc.Touch(e.h, s.stamp.Load())
	return append(dst, e.val...), true
}

// maybePromote runs the sampled publish-then-recheck promotion for a verified
// GET hit: val was copied from handle h under the slab seqlock, v1 is the
// shard's index version captured before the search/verify that produced it.
// See the protocol comment at the top of this file.
func (s *Store) maybePromote(si int, sh *shard, hv uint64, key, val []byte, h slab.Handle, v1 uint64) {
	if len(val) > hotMaxValue || !s.hot.sample() {
		return
	}
	e := &hotEntry{
		hv:  hv,
		h:   h,
		si:  si,
		key: append([]byte(nil), key...),
		val: append([]byte(nil), val...),
	}
	slot := &s.hot.slots[hv&s.hot.mask]
	slot.Store(e)
	if sh.idx.Version() != v1 {
		slot.CompareAndSwap(e, nil)
		return
	}
	if loc, ok := sh.lookupLoc(hv, key); !ok || handleOf(loc) != h {
		slot.CompareAndSwap(e, nil)
		return
	}
	servable := *e
	servable.ready = true
	slot.CompareAndSwap(e, &servable)
}

// hotInvalidate is the writer-side hook: clear key's entry after the index
// mutation. hv must be key's shardFor hash.
func (s *Store) hotInvalidate(hv uint64, key []byte) {
	if s.hot != nil {
		s.hot.invalidate(hv, key)
	}
}

// HotStats reports the hot-key fast path's cumulative hit count and whether
// the table is enabled. The live pipeline measures HotHitPortion from the
// hit delta per batch (pipeline.HotKeyStore).
func (s *Store) HotStats() (hits uint64, enabled bool) {
	if s.hot == nil {
		return 0, false
	}
	return s.hot.hits.Load(), true
}

// hotProbe is a test hook: it reports whether key is currently cached hot and
// returns the cached value.
func (s *Store) hotProbe(key []byte) ([]byte, bool) {
	if s.hot == nil {
		return nil, false
	}
	hv := cuckoo.Hash(key, s.seed)
	e := s.hot.lookup(hv, key)
	if e == nil {
		return nil, false
	}
	return e.val, true
}
