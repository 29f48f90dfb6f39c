// Package store assembles the cuckoo index and the slab arena into a
// key-value object store. It exposes two API levels:
//
//   - Composite operations (Get / GetInto / Set / Delete) for direct use —
//     this is what the real UDP server and the examples run on.
//
//   - Task-granular operations (IndexSearch, KeyCompare, ReadValue,
//     AllocForSet, IndexInsert, IndexDelete) matching the DIDO pipeline's
//     fine-grained task decomposition (paper §III-A: MM, IN, KC, RD), so the
//     pipeline engine can place each step on either processor independently.
//
// The store is sharded N-way by key hash (N a power of two, up to 16): each
// shard owns its own cuckoo table and slab arena with a 1/N budget, so
// writers on one shard never contend with readers or writers on another. A
// shard id is folded into bits 44..47 of every cuckoo Location (slab handles
// occupy bits 0..43), which keeps the task-granular API shard-oblivious:
// locations returned by IndexSearch are globally resolvable.
//
// Reads never take a lock on the data path: KeyCompare, ReadValue and the
// composite GET validate their copies against the slab's per-chunk seqlock
// versions, so a concurrent SET that evicts and reuses a chunk can never
// tear the bytes a reader returns.
//
// A SET under memory pressure evicts an existing object, producing one Insert
// and one Delete index operation (paper §II-C2); this coupling is preserved
// here and is what makes DIDO's flexible index-operation assignment matter.
package store

import (
	"fmt"
	"sync/atomic"

	"bytes"

	"repro/internal/cuckoo"
	"repro/internal/ordered"
	"repro/internal/slab"
	"repro/internal/stats"
)

// MaxShards is the largest supported shard count: locations carry the shard
// id in bits 44..47 (cuckoo locations are 48-bit).
const MaxShards = 16

const (
	shardShift = 44
	handleMask = 1<<shardShift - 1
)

// locOf folds shard si into a shard-local slab handle, yielding the global
// location stored in that shard's index.
func locOf(si int, h slab.Handle) cuckoo.Location {
	return cuckoo.Location(uint64(si)<<shardShift | uint64(h))
}

// handleOf strips the shard bits from a global location.
func handleOf(loc cuckoo.Location) slab.Handle {
	return slab.Handle(uint64(loc) & handleMask)
}

// shardOfLoc extracts the shard id from a global location.
func shardOfLoc(loc cuckoo.Location) int {
	return int(uint64(loc) >> shardShift)
}

// Config parameterizes a Store.
type Config struct {
	// MemoryBytes is the arena budget for key-value objects, divided evenly
	// across shards.
	MemoryBytes int64
	// IndexEntries is the expected object count, used to size the index
	// (divided evenly across shards).
	IndexEntries int
	// Seed makes hashing deterministic for reproducible experiments.
	Seed uint64
	// Shards is the number of independent shards (rounded up to a power of
	// two, clamped to [1, MaxShards]; 0 means 1). More shards reduce lock and
	// cache-line contention between concurrent writers at the cost of
	// fragmenting the arena budget N ways.
	Shards int
	// Slab optionally overrides the slab configuration; when non-nil its
	// TotalBytes is the whole-store budget and is divided across shards.
	Slab *slab.Config
	// Ordered maintains a per-shard ordered index (a lazily copied B-tree
	// over key → location) beside the cuckoo table, enabling snapshot range
	// scans (see scan.go). A write that changes the key set pays one in-place
	// tree insert or delete, an overwrite one descent and an atomic store;
	// point reads are unaffected.
	Ordered bool
}

// shard is one independent index+arena pair, plus the optional ordered index
// the scan path merges over (nil unless Config.Ordered).
type shard struct {
	idx   *cuckoo.Table
	alloc *slab.Allocator
	tree  *ordered.Tree
}

// Store is a concurrent in-memory key-value store. All methods are safe for
// concurrent use.
type Store struct {
	shards    []*shard
	shardMask uint64
	seed      uint64
	stamp     atomic.Uint32 // current sampling-interval timestamp

	gets      stats.Counter
	sets      stats.Counter
	dels      stats.Counter
	hits      stats.Counter
	misses    stats.Counter
	evictions stats.Counter

	scans         stats.Counter // range scans started
	scanEntries   stats.Counter // entries returned across all scans
	scanBytes     stats.Counter // key+value bytes returned across all scans
	scanFallbacks stats.Counter // snapshot locations resolved via point lookup
}

// normalizeShards rounds n up to a power of two in [1, MaxShards].
func normalizeShards(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New returns a store for cfg.
func New(cfg Config) *Store {
	if cfg.MemoryBytes <= 0 {
		panic("store: MemoryBytes must be positive")
	}
	nShards := normalizeShards(cfg.Shards)
	if cfg.IndexEntries <= 0 {
		// The arena can hold at most MemoryBytes / MinChunk objects (64-byte
		// minimum slab class); size the index for that worst case so small
		// objects never jam the cuckoo table.
		cfg.IndexEntries = int(cfg.MemoryBytes / 64)
		if cfg.IndexEntries < 1024 {
			cfg.IndexEntries = 1024
		}
	}
	scfg := slab.DefaultConfig(cfg.MemoryBytes)
	if cfg.Slab != nil {
		scfg = *cfg.Slab
	}
	// Divide the budget; shrink the slab granularity when a shard's slice is
	// smaller than one slab so every shard can hold at least one.
	scfg.TotalBytes /= int64(nShards)
	if int64(scfg.SlabBytes) > scfg.TotalBytes {
		scfg.SlabBytes = int(scfg.TotalBytes) &^ 7
		if scfg.MaxChunk > scfg.SlabBytes {
			scfg.MaxChunk = scfg.SlabBytes
		}
	}
	perShardEntries := cfg.IndexEntries / nShards
	if perShardEntries < 64 {
		perShardEntries = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x51ab1e5eed // tables reject nothing, but keep it non-zero
	}
	s := &Store{
		shards:    make([]*shard, nShards),
		shardMask: uint64(nShards - 1),
		seed:      cfg.Seed,
	}
	// Every shard hashes with the same seed: a key is hashed once, shards are
	// routed on bits 40..43 of that hash (see routeShift), and the shard's
	// table reuses the hash for its bucket index and signature.
	for i := range s.shards {
		s.shards[i] = &shard{
			idx:   cuckoo.NewForCapacity(perShardEntries, 0.85, cfg.Seed),
			alloc: slab.NewAllocator(scfg),
		}
		if cfg.Ordered {
			s.shards[i].tree = ordered.New()
		}
	}
	if n := s.shards[0].alloc.Classes(); n > slab.MaxClasses {
		panic(fmt.Sprintf("store: %d slab classes exceed the location's class field", n))
	}
	s.stamp.Store(1)
	return s
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// routeShift positions the shard-routing bits inside the key hash: above any
// realistic bucket index (low bits), below the 16-bit signature (top bits).
const routeShift = 40

// shardFor routes key to its shard. The returned hash is reusable by the
// shard's table (same seed), so the hot read path hashes each key once.
func (s *Store) shardFor(key []byte) (int, *shard, uint64) {
	hv := cuckoo.Hash(key, s.seed)
	if s.shardMask == 0 {
		return 0, s.shards[0], hv
	}
	si := int((hv >> routeShift) & s.shardMask)
	return si, s.shards[si], hv
}

// ---- Composite operations ----

// Get returns a copy of the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	v, ok := s.GetInto(key, nil)
	if !ok {
		return nil, false
	}
	return v, true
}

// GetInto appends the value stored under key to dst and returns the extended
// slice. On a miss dst is returned unchanged. The read is lock-free and,
// given a dst with sufficient capacity, allocation-free: candidates from the
// shard's index are verified and copied under the slab's per-chunk seqlock,
// so a concurrent eviction reusing the chunk can never tear the result.
func (s *Store) GetInto(key, dst []byte) ([]byte, bool) {
	s.gets.Inc()
	_, sh, hv := s.shardFor(key)
	return s.readVerified(sh, hv, key, dst)
}

// readVerified is the version-validated search+read loop shared by GetInto
// and the staged read path's fallback (ReadCandidates): search the shard's
// index, verify-and-copy candidates under the slab seqlock, and reprobe when
// an index mutation raced the probe. It maintains the hit/miss counters.
func (s *Store) readVerified(sh *shard, hv uint64, key, dst []byte) ([]byte, bool) {
	for attempt := 0; ; attempt++ {
		v1 := sh.idx.Version()
		var buf [cuckoo.MaxCandidates]cuckoo.Location
		n, _ := sh.idx.SearchBufHash(hv, &buf)
		for _, loc := range buf[:n] {
			h := handleOf(loc)
			if out, ok := sh.alloc.ReadIfMatch(h, key, dst); ok {
				s.hits.Inc()
				sh.alloc.Touch(h, s.stamp.Load())
				return out, true
			}
		}
		// A concurrent overwrite (Insert new, Delete+Free old) or displacement
		// kick can hide the key from a probe that started before it: the
		// probe collects the old location, the writer retires or moves it,
		// validation fails. An unchanged index version proves no such
		// mutation raced us — the miss is real.
		if attempt >= maxReadRetries || sh.idx.Version() == v1 {
			s.misses.Inc()
			return dst, false
		}
	}
}

// maxReadRetries bounds the reprobe loop for reads that race overwrites, so
// unrelated write churn on the shard cannot livelock a genuine miss.
const maxReadRetries = 8

// Set stores value under key, overwriting any existing object. It returns
// the number of index Insert and Delete operations the SET generated (for
// workload accounting) and an error from the allocator.
//
// Ordering matters for both durability and visibility: the new object is
// allocated and inserted into the index *before* the old object's entry is
// deleted, so (a) a SET that fails with ErrTooLarge/ErrNoMemory leaves the
// previous value intact, and (b) a concurrent GET of the same key never hits
// a window where neither version is indexed.
func (s *Store) Set(key, value []byte) (inserts, deletes int, err error) {
	s.sets.Inc()
	si, sh, hv := s.shardFor(key)
	oldLoc, hadOld := sh.lookupLoc(hv, key)
	h, ev, err := sh.alloc.Alloc(key, value, s.stamp.Load())
	if err != nil {
		return 0, 0, err
	}
	if ev != nil {
		// The eviction victim's index entry must go too (paper §II-C2).
		s.evictions.Inc()
		evLoc := locOf(si, ev.Handle)
		if sh.idx.Delete(ev.Key, evLoc) {
			deletes++
		}
		// Reconcile the victim's ordered-index binding — unless the victim is
		// this very key's old object, in which case the sync at the end of the
		// SET repoints it and the key never vanishes from concurrent
		// snapshots. (A racing overwrite of the victim key is safe either
		// way: syncOrdered re-reads the cuckoo state under the tree lock.)
		if sh.tree != nil && !bytes.Equal(ev.Key, key) {
			s.syncOrdered(sh, cuckoo.Hash(ev.Key, s.seed), ev.Key)
		}
		if hadOld && evLoc == oldLoc {
			hadOld = false // the victim was this key's own old object
		}
	}
	if !sh.idx.Insert(key, locOf(si, h)) {
		// Index full: undo the allocation and report no memory. The old
		// object (if any) is still indexed — the SET failed cleanly.
		sh.alloc.FreeIfMatch(h, key)
		return inserts, deletes, slab.ErrNoMemory
	}
	inserts++
	if hadOld {
		// Retire the overwritten object only now that the new one is live —
		// unless an eviction recycled its chunk since lookupLoc (the evictor
		// may not have removed the entry yet, so Delete can still succeed):
		// the chunk then holds another writer's live object, which a blind
		// Free would kill after its owner had indexed it.
		if sh.idx.Delete(key, oldLoc) {
			sh.alloc.FreeIfMatch(handleOf(oldLoc), key)
			deletes++
		}
	}
	// Reconcile the ordered index after every cuckoo mutation of this key is
	// applied. A snapshot taken mid-SET holds the old location and self-heals
	// through the seqlock verify + point-lookup fallback on the scan read
	// path (scan.go); the key itself is never absent from either index
	// (insert-before-delete above).
	s.syncOrdered(sh, hv, key)
	return inserts, deletes, nil
}

// syncOrdered reconciles key's ordered-index binding with the shard's cuckoo
// index: under the tree's writer lock it re-resolves the key's live location
// and upserts or removes the binding. Re-reading inside the lock (rather than
// pushing a value observed earlier) means racing writers can interleave in
// any order and the tree still converges to the cuckoo state — including the
// nasty cases where racing overwrites leave short-lived duplicate index
// entries. For a key the tree already holds (every overwrite) that is one
// descent and one atomic store of the new location: no node is copied and
// concurrent scans keep their snapshot. No-op on stores without
// Config.Ordered.
func (s *Store) syncOrdered(sh *shard, hv uint64, key []byte) {
	if sh.tree == nil {
		return
	}
	sh.tree.Update(key, func() (uint64, bool) {
		loc, ok := sh.lookupLoc(hv, key)
		return uint64(loc), ok
	})
}

// Delete removes key. It reports whether an object was removed.
func (s *Store) Delete(key []byte) bool {
	s.dels.Inc()
	_, sh, hv := s.shardFor(key)
	loc, ok := sh.lookupLoc(hv, key)
	if !ok {
		return false
	}
	if !sh.idx.Delete(key, loc) {
		return false
	}
	sh.alloc.FreeIfMatch(handleOf(loc), key)
	s.syncOrdered(sh, hv, key)
	return true
}

// lookupLoc finds the live global location for key within this shard, with
// the same miss-reprobe discipline as GetInto. hv is the key's precomputed
// hash from shardFor.
func (sh *shard) lookupLoc(hv uint64, key []byte) (cuckoo.Location, bool) {
	for attempt := 0; ; attempt++ {
		v1 := sh.idx.Version()
		var buf [cuckoo.MaxCandidates]cuckoo.Location
		n, _ := sh.idx.SearchBufHash(hv, &buf)
		for _, loc := range buf[:n] {
			if sh.alloc.MatchKey(handleOf(loc), key) {
				return loc, true
			}
		}
		if attempt >= maxReadRetries || sh.idx.Version() == v1 {
			return 0, false
		}
	}
}

// ---- Task-granular operations (pipeline building blocks) ----

// IndexSearch performs the IN(Search) task: it returns candidate locations
// for key, appending to dst. Returned locations carry their shard id and can
// be passed to KeyCompare / ReadValue / IndexDelete directly.
func (s *Store) IndexSearch(key []byte, dst []cuckoo.Location) []cuckoo.Location {
	_, sh, _ := s.shardFor(key)
	cands, _ := sh.idx.Search(key, dst)
	return cands
}

// SearchServe is IndexSearch's twin, kept because the benchmark module's
// replay (benchmark/replay.go) calls it by name for the per-key search of a
// small batch. The serving pipeline runs SearchBatch.
func (s *Store) SearchServe(key []byte, dst []cuckoo.Location) []cuckoo.Location {
	return s.IndexSearch(key, dst)
}

// KeyCompare performs the KC task: it reports whether the object at loc is
// live and stores exactly key. The compare is lock-free and seqlock-safe.
func (s *Store) KeyCompare(loc cuckoo.Location, key []byte) bool {
	si := shardOfLoc(loc)
	if si >= len(s.shards) {
		return false
	}
	return s.shards[si].alloc.MatchKey(handleOf(loc), key)
}

// ReadValue performs the RD task: it returns a copy of the value bytes at
// loc and touches the object for CLOCK/sampling. Unlike earlier revisions the
// returned slice never aliases the arena — it stays valid after eviction.
func (s *Store) ReadValue(loc cuckoo.Location) ([]byte, bool) {
	v, ok := s.ReadValueInto(loc, nil)
	if !ok {
		return nil, false
	}
	return v, true
}

// ReadValueInto is ReadValue appending into dst (the allocation-free form).
// On a miss dst is returned unchanged.
func (s *Store) ReadValueInto(loc cuckoo.Location, dst []byte) ([]byte, bool) {
	si := shardOfLoc(loc)
	if si >= len(s.shards) {
		return dst, false
	}
	sh := s.shards[si]
	h := handleOf(loc)
	out, ok := sh.alloc.ReadInto(h, dst)
	if !ok {
		return dst, false
	}
	sh.alloc.Touch(h, s.stamp.Load())
	return out, true
}

// AllocForSet performs the MM task for a SET: allocate and fill a chunk in
// the key's shard. The returned handle and any Evicted.Handle carry the
// shard id (pass them to IndexInsert / IndexDelete / FreeHandle as-is). A
// non-nil evicted descriptor obliges the caller to issue an IndexDelete for
// the victim.
func (s *Store) AllocForSet(key, value []byte) (slab.Handle, *slab.Evicted, error) {
	si, sh, _ := s.shardFor(key)
	h, ev, err := sh.alloc.Alloc(key, value, s.stamp.Load())
	if err != nil {
		return slab.NoHandle, nil, err
	}
	if ev != nil {
		ev.Handle = slab.Handle(locOf(si, ev.Handle))
	}
	return slab.Handle(locOf(si, h)), ev, nil
}

// IndexInsert performs the IN(Insert) task. h must come from AllocForSet.
func (s *Store) IndexInsert(key []byte, h slab.Handle) bool {
	_, sh, hv := s.shardFor(key)
	ok := sh.idx.Insert(key, cuckoo.Location(h))
	if ok {
		s.syncOrdered(sh, hv, key)
	}
	return ok
}

// IndexDelete performs the IN(Delete) task.
func (s *Store) IndexDelete(key []byte, loc cuckoo.Location) bool {
	si := shardOfLoc(loc)
	if si >= len(s.shards) {
		return false
	}
	sh := s.shards[si]
	if !sh.idx.Delete(key, loc) {
		return false
	}
	sh.alloc.FreeIfMatch(handleOf(loc), key)
	s.syncOrdered(sh, cuckoo.Hash(key, s.seed), key)
	return true
}

// FreeHandle releases an allocation that never made it into the index.
func (s *Store) FreeHandle(h slab.Handle) {
	loc := cuckoo.Location(h)
	si := shardOfLoc(loc)
	if si >= len(s.shards) {
		return
	}
	s.shards[si].alloc.Free(handleOf(loc))
}

// ---- Profiling hooks ----

// AdvanceSampleInterval begins a new skewness-sampling interval and returns
// the access counters collected during the one that just ended (paper §IV-B),
// gathered across all shards.
func (s *Store) AdvanceSampleInterval(limit int) []uint32 {
	old := s.stamp.Load()
	var counts []uint32
	for _, sh := range s.shards {
		rem := 0
		if limit > 0 {
			rem = limit - len(counts)
			if rem <= 0 {
				break
			}
		}
		counts = append(counts, sh.alloc.CollectAccessCounts(old, rem)...)
	}
	s.stamp.Store(old + 1)
	return counts
}

// Len returns the number of live index entries across shards, the live-object
// count, in O(1) per shard.
func (s *Store) Len() int {
	var n int
	for _, sh := range s.shards {
		n += sh.idx.Len()
	}
	return n
}

// Index exposes the first shard's cuckoo table (read-mostly: stats,
// capacity). With the default single shard this is the whole index.
func (s *Store) Index() *cuckoo.Table { return s.shards[0].idx }

// Arena exposes the first shard's allocator (stats). With the default single
// shard this is the whole arena.
func (s *Store) Arena() *slab.Allocator { return s.shards[0].alloc }

// Stats is a snapshot of store-level counters.
type Stats struct {
	Gets, Sets, Deletes    uint64
	Hits, Misses           uint64
	Evictions              uint64
	EvictScan              uint64 // chunks the slab CLOCK hands examined to find victims
	Scans                  uint64 // range scans started
	ScanEntries            uint64 // entries returned across all scans
	ScanBytes              uint64 // key+value bytes returned across all scans
	ScanFallbacks          uint64 // stale snapshot locations re-resolved live
	OrderedKeys            int    // live keys in the ordered index (0 if disabled)
	LiveObjects            int
	IndexLoadFactor        float64
	AvgInsertBucketsProbed float64
}

// Range iterates every live object across all shards, calling fn(key, value)
// for each until fn returns false. It is lock-free (per-chunk seqlock reads
// in the slab arena) and safe to run concurrently with the serving path —
// the durability tier's snapshotter walks the store this way while writes
// continue. The slices passed to fn are reused; fn must copy what it keeps.
func (s *Store) Range(fn func(key, value []byte) bool) {
	for _, sh := range s.shards {
		if !sh.alloc.Range(fn) {
			return
		}
	}
}

// StatsSnapshot returns current counters, aggregated across shards.
func (s *Store) StatsSnapshot() Stats {
	st := Stats{
		Gets:          s.gets.Load(),
		Sets:          s.sets.Load(),
		Deletes:       s.dels.Load(),
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Scans:         s.scans.Load(),
		ScanEntries:   s.scanEntries.Load(),
		ScanBytes:     s.scanBytes.Load(),
		ScanFallbacks: s.scanFallbacks.Load(),
	}
	var inserts, insertBuckets float64
	var loadSum float64
	for _, sh := range s.shards {
		is := sh.idx.StatsSnapshot()
		as := sh.alloc.StatsSnapshot()
		st.LiveObjects += as.LiveObjects
		st.EvictScan += as.EvictScan
		if sh.tree != nil {
			st.OrderedKeys += sh.tree.Len()
		}
		loadSum += sh.idx.LoadFactor()
		inserts += float64(is.Inserts)
		insertBuckets += is.AvgInsertBuckets * float64(is.Inserts)
	}
	st.IndexLoadFactor = loadSum / float64(len(s.shards))
	if inserts > 0 {
		st.AvgInsertBucketsProbed = insertBuckets / inserts
	}
	return st
}
