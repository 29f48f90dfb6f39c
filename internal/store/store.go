// Package store assembles the cuckoo index and the slab arena into a
// key-value object store. It exposes three API levels:
//
//   - Composite operations (Get / GetInto / Set / Delete / Scan) for direct
//     use — the server's write path and the examples run on these.
//
//   - Batched reads (SearchBatch, GetBatch, ReadCandidatesBatch in
//     widebatch.go) — the serving pipeline's read path.
//
//   - Task-granular GET steps (IndexSearch, KeyCompare, ReadValueInto)
//     matching the DIDO pipeline's task decomposition (paper §III-A: IN, KC,
//     RD), which the simulator's executor runs one query at a time.
//
// The store is one cuckoo table over one slab arena: a cuckoo Location is the
// object's slab handle, so locations returned by IndexSearch resolve directly
// in the arena.
//
// Reads never take a lock on the data path: KeyCompare, ReadValueInto and the
// composite GET validate their copies against the slab's per-chunk seqlock
// versions, so a concurrent SET that evicts and reuses a chunk can never
// tear the bytes a reader returns.
//
// A SET under memory pressure evicts an existing object, producing one Insert
// and one Delete index operation (paper §II-C2); this coupling is preserved
// here and is what makes DIDO's flexible index-operation assignment matter.
package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cuckoo"
	"repro/internal/ordered"
	"repro/internal/slab"
	"repro/internal/stats"
)

// Config parameterizes a Store.
type Config struct {
	// MemoryBytes is the arena budget for key-value objects.
	MemoryBytes int64
	// IndexEntries is the expected object count, used to size the index.
	IndexEntries int
	// Seed makes hashing deterministic for reproducible experiments.
	Seed uint64
	// Slab optionally overrides the slab configuration; when non-nil its
	// TotalBytes is the arena budget.
	Slab *slab.Config
	// Ordered keeps an ordered index (a lazily copied B-tree over key →
	// location) beside the cuckoo table, enabling snapshot range scans (see
	// scan.go); without it Scan reports the store unordered. The tree is
	// built by the first scan, from the arena, so a load and any writes
	// before that scan pay nothing for it. While the tree is maintained, a
	// write that changes the key set pays one in-place tree insert or
	// delete, an overwrite one descent and an atomic store. A store that
	// takes more than 2 × its live keys + 64 Ki writes with no scan drops
	// its tree and writes stop paying again; the next scan rebuilds it (see
	// dropOrdered). Point reads are unaffected.
	Ordered bool
}

// Store is a concurrent in-memory key-value store. All methods are safe for
// concurrent use.
type Store struct {
	idx   *cuckoo.Table
	alloc *slab.Allocator
	tree  *ordered.Tree // nil unless Config.Ordered
	seed  uint64
	stamp atomic.Uint32 // current sampling-interval timestamp

	// Ordered-index upkeep (see dropOrdered).
	upkeep   atomic.Int64 // tree Updates since the last scan snapshot
	dropped  atomic.Bool  // the tree is empty and writes skip it until a scan builds it
	upkeepMu sync.Mutex   // orders drop, build and snapshot; a write takes it only to drop

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

	orderedDrops      stats.Counter // trees dropped for lack of scans
	orderedRebuilds   stats.Counter // trees built by a scan: the first, and one after each drop
	orderedBuildNanos stats.Counter // time spent in those builds
}

// New returns a store for cfg.
func New(cfg Config) *Store {
	if cfg.MemoryBytes <= 0 {
		panic("store: MemoryBytes must be positive")
	}
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
	// Shrink the slab granularity when the arena is smaller than one slab so
	// it can hold at least one.
	if int64(scfg.SlabBytes) > scfg.TotalBytes {
		scfg.SlabBytes = int(scfg.TotalBytes) &^ 7
		if scfg.MaxChunk > scfg.SlabBytes {
			scfg.MaxChunk = scfg.SlabBytes
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x51ab1e5eed // tables reject nothing, but keep it non-zero
	}
	s := &Store{
		idx:   cuckoo.NewForCapacity(cfg.IndexEntries, 0.85, cfg.Seed),
		alloc: slab.NewAllocator(scfg),
		seed:  cfg.Seed,
	}
	if cfg.Ordered {
		// The tree starts unbuilt, as if dropped: the first scan builds it.
		s.tree = ordered.New()
		s.dropped.Store(true)
	}
	if n := s.alloc.Classes(); n > slab.MaxClasses {
		panic(fmt.Sprintf("store: %d slab classes exceed the location's class field", n))
	}
	s.stamp.Store(1)
	return s
}

// hash is key's hash under the table's seed: the store hashes a key once and
// the table's SearchBufHash / SearchBatch reuse it for bucket and signature.
func (s *Store) hash(key []byte) uint64 { return cuckoo.Hash(key, s.seed) }

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
// index are verified and copied under the slab's per-chunk seqlock, so a
// concurrent eviction reusing the chunk can never tear the result.
func (s *Store) GetInto(key, dst []byte) ([]byte, bool) {
	s.gets.Inc()
	return s.readVerified(s.hash(key), key, dst)
}

// readVerified is the version-validated search+read loop shared by GetInto
// and the staged read path's fallback (ReadCandidates): search the index,
// verify-and-copy candidates under the slab seqlock, and reprobe when an
// index mutation raced the probe. It maintains the hit/miss counters.
func (s *Store) readVerified(hv uint64, key, dst []byte) ([]byte, bool) {
	for attempt := 0; ; attempt++ {
		v1 := s.idx.Version()
		var buf [cuckoo.MaxCandidates]cuckoo.Location
		n, _ := s.idx.SearchBufHash(hv, &buf)
		for _, loc := range buf[:n] {
			h := slab.Handle(loc)
			if out, ok := s.alloc.ReadIfMatch(h, key, dst); ok {
				s.hits.Inc()
				s.alloc.Touch(h, s.stamp.Load())
				return out, true
			}
		}
		// A concurrent overwrite (Insert new, Delete+Free old) or displacement
		// kick can hide the key from a probe that started before it: the
		// probe collects the old location, the writer retires or moves it,
		// validation fails. An unchanged index version proves no such
		// mutation raced us — the miss is real.
		if attempt >= maxReadRetries || s.idx.Version() == v1 {
			s.misses.Inc()
			return dst, false
		}
	}
}

// maxReadRetries bounds the reprobe loop for reads that race overwrites, so
// unrelated write churn cannot livelock a genuine miss.
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
	hv := s.hash(key)
	oldLoc, hadOld := s.lookupLoc(hv, key)
	h, ev, err := s.alloc.Alloc(key, value, s.stamp.Load())
	if err != nil {
		return 0, 0, err
	}
	if ev != nil {
		// The eviction victim's index entry must go too (paper §II-C2).
		s.evictions.Inc()
		evLoc := cuckoo.Location(ev.Handle)
		if s.idx.Delete(ev.Key, evLoc) {
			deletes++
		}
		// Reconcile the victim's ordered-index binding — unless the tree is
		// dropped, or the victim is this very key's old object, in which case
		// the sync at the end of the SET repoints it and the key never
		// vanishes from concurrent snapshots. (A racing overwrite of the
		// victim key is safe either way: syncOrdered re-reads the cuckoo
		// state under the tree lock.)
		if s.tree != nil && !s.dropped.Load() && !bytes.Equal(ev.Key, key) {
			s.syncOrdered(s.hash(ev.Key), ev.Key)
		}
		if hadOld && evLoc == oldLoc {
			hadOld = false // the victim was this key's own old object
		}
	}
	if !s.idx.Insert(key, cuckoo.Location(h)) {
		// Index full: undo the allocation and report no memory. The old
		// object (if any) is still indexed — the SET failed cleanly.
		s.alloc.FreeIfMatch(h, key)
		return inserts, deletes, slab.ErrNoMemory
	}
	inserts++
	if hadOld {
		// Retire the overwritten object only now that the new one is live —
		// unless an eviction recycled its chunk since lookupLoc (the evictor
		// may not have removed the entry yet, so Delete can still succeed):
		// the chunk then holds another writer's live object, which a blind
		// Free would kill after its owner had indexed it.
		if s.idx.Delete(key, oldLoc) {
			s.alloc.FreeIfMatch(slab.Handle(oldLoc), key)
			deletes++
		}
	}
	// Reconcile the ordered index after every cuckoo mutation of this key is
	// applied. A snapshot taken mid-SET holds the old location and self-heals
	// through the seqlock verify + point-lookup fallback on the scan read
	// path (scan.go); the key itself is never absent from either index
	// (insert-before-delete above).
	s.syncOrdered(hv, key)
	return inserts, deletes, nil
}

// syncOrdered reconciles key's ordered-index binding with the cuckoo index:
// under the tree's writer lock it re-resolves the key's live location and
// upserts or removes the binding. Re-reading inside the lock (rather than
// pushing a value observed earlier) means racing writers can interleave in
// any order and the tree still converges to the cuckoo state — including the
// nasty cases where racing overwrites leave short-lived duplicate index
// entries. For a key the tree already holds (every overwrite) that is one
// descent and one atomic store of the new location: no node is copied and
// concurrent scans keep their snapshot. No-op on stores without
// Config.Ordered, and while the tree is dropped.
func (s *Store) syncOrdered(hv uint64, key []byte) {
	if s.tree == nil || s.dropped.Load() {
		return
	}
	if s.upkeep.Add(1) > s.upkeepLimit() && s.dropOrdered() {
		return
	}
	s.tree.Update(key, func() (uint64, bool) {
		if s.dropped.Load() {
			// A drop raced this write: the tree is empty, or about to be, and
			// removing the key from it does nothing.
			return 0, false
		}
		loc, ok := s.lookupLoc(hv, key)
		return uint64(loc), ok
	})
}

// upkeepFloor is the slack in upkeepLimit. It keeps small stores, whose
// builds cost little, on the maintained path once a scan has built the tree.
const upkeepFloor = 64 << 10

// upkeepLimit is how many tree Updates the store pays for between two scans
// before it drops its tree: 2 × its live keys + upkeepFloor. Upkeep is rent,
// a build the price of buying. The count starts at the first scan, which
// builds the tree: before it nothing is maintained, so a load pays no rent.
// On a 2-vCPU Intel Xeon VM keeping the tree made a load of 1 Mi K16/V64
// keys cost about 1.7 µs more per key (2.3 against 0.6, BenchmarkStoreLoad),
// and a build costs about 0.55 µs per key (BenchmarkOrderedRebuild). A scan
// gap that drops the tree has already paid for 2N updates, several times
// the N-key build its rebuild costs.
func (s *Store) upkeepLimit() int64 { return 2*int64(s.idx.Len()) + upkeepFloor }

// dropOrdered is called by a write whose Update crossed upkeepLimit. It
// empties the tree in O(1) and sets the dropped bit, so writes skip
// the tree until the next scan rebuilds it (orderedSnapshot). It reports
// whether the tree is dropped; false means a scan restarted the count since
// the caller crossed the limit, and the caller's write must be synced.
//
// The bit is set before the tree is emptied, and a write re-checks it under
// the tree lock, so no write that raced the drop puts a key back.
func (s *Store) dropOrdered() bool {
	s.upkeepMu.Lock()
	defer s.upkeepMu.Unlock()
	if s.dropped.Load() {
		return true
	}
	if s.upkeep.Load() <= s.upkeepLimit() {
		return false
	}
	s.dropped.Store(true)
	s.tree.Load(0, nil)
	s.orderedDrops.Inc()
	return true
}

// orderedSnapshot returns the ordered-index snapshot for a scan, first
// building the tree if it is unbuilt (the first scan) or dropped, and
// restarts the upkeep count.
//
// The build runs under the tree lock (Tree.Load). It clears the dropped bit
// before it walks the arena, and a write checks the bit only after its cuckoo
// mutations. A write that finds the bit clear therefore syncs after the
// build, resolving under the lock as usual, and a write that found it set
// had finished its mutations before the walk began, which sees them (Go
// atomics are sequentially consistent). Each object the walk meets is
// resolved through the cuckoo index (buildOrdered), so a deleted key is left
// out and a key with a stranded duplicate object is bound to its indexed
// location, once.
func (s *Store) orderedSnapshot() ordered.Snapshot {
	s.upkeepMu.Lock()
	defer s.upkeepMu.Unlock()
	if s.dropped.Load() {
		start := time.Now()
		s.tree.Load(s.idx.Len(), func(add func(key []byte, val uint64)) {
			s.dropped.Store(false)
			s.buildOrdered(add)
		})
		s.orderedRebuilds.Inc()
		s.orderedBuildNanos.Add(uint64(time.Since(start)))
	}
	s.upkeep.Store(0)
	return s.tree.Snapshot()
}

// buildChunk is how many keys buildOrdered resolves per wave sweep: enough
// for the sweep to overlap many bucket misses, few enough that the chunks
// the walk just read are still cached when their keys are verified.
const buildChunk = 256

// buildOrdered passes add every key the arena holds that the cuckoo index
// resolves, with its location. It walks the arena for keys (slab
// RangeKeys, no value bytes) and resolves them a chunk at a time with
// the batched read's hash + SearchBatch waves: each key binds to the first
// of its candidates that verifies (matchLoc, as lookupLoc chooses). A
// key with no verifying candidate (deleted since the walk, or hidden by a
// racing displacement) falls back to lookupLoc itself, and is left out if
// that misses too.
func (s *Store) buildOrdered(add func(key []byte, val uint64)) {
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	sc.grow(buildChunk)
	keys := make([][]byte, 0, buildChunk)
	ends := make([]int, 0, buildChunk)
	var buf []byte
	flush := func() {
		keys = keys[:0]
		start := 0
		for _, end := range ends {
			keys = append(keys, buf[start:end:end])
			start = end
		}
		s.search(keys, sc.identity(len(keys)), sc)
		for j, key := range keys {
			base := j * cuckoo.MaxCandidates
			loc, ok := s.matchLoc(sc.cands[base:base+int(sc.counts[j])], key)
			if !ok {
				loc, ok = s.lookupLoc(sc.hv[j], key)
			}
			if ok {
				add(key, uint64(loc))
			}
		}
		buf, ends = buf[:0], ends[:0]
	}
	s.alloc.RangeKeys(func(key []byte) bool {
		buf = append(buf, key...)
		ends = append(ends, len(buf))
		if len(ends) == buildChunk {
			flush()
		}
		return true
	})
	if len(ends) > 0 {
		flush()
	}
}

// Delete removes key. It reports whether an object was removed.
func (s *Store) Delete(key []byte) bool {
	s.dels.Inc()
	hv := s.hash(key)
	loc, ok := s.lookupLoc(hv, key)
	if !ok {
		return false
	}
	if !s.idx.Delete(key, loc) {
		return false
	}
	s.alloc.FreeIfMatch(slab.Handle(loc), key)
	s.syncOrdered(hv, key)
	return true
}

// lookupLoc finds the live location for key, with the same miss-reprobe
// discipline as GetInto. hv is the key's precomputed hash.
func (s *Store) lookupLoc(hv uint64, key []byte) (cuckoo.Location, bool) {
	for attempt := 0; ; attempt++ {
		v1 := s.idx.Version()
		var buf [cuckoo.MaxCandidates]cuckoo.Location
		n, _ := s.idx.SearchBufHash(hv, &buf)
		if loc, ok := s.matchLoc(buf[:n], key); ok {
			return loc, true
		}
		if attempt >= maxReadRetries || s.idx.Version() == v1 {
			return 0, false
		}
	}
}

// matchLoc returns the first of cands whose object stores key.
func (s *Store) matchLoc(cands []cuckoo.Location, key []byte) (cuckoo.Location, bool) {
	for _, loc := range cands {
		if s.alloc.MatchKey(slab.Handle(loc), key) {
			return loc, true
		}
	}
	return 0, false
}

// ---- Task-granular operations (pipeline building blocks) ----

// IndexSearch performs the IN(Search) task: it returns candidate locations
// for key, appending to dst. Returned locations can be passed to KeyCompare /
// ReadValueInto directly.
func (s *Store) IndexSearch(key []byte, dst []cuckoo.Location) []cuckoo.Location {
	cands, _ := s.idx.Search(key, dst)
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
	return s.alloc.MatchKey(slab.Handle(loc), key)
}

// ReadValueInto performs the RD task: it appends a copy of the value bytes at
// loc to dst and touches the object for CLOCK/sampling. The result never
// aliases the arena, so it stays valid after eviction. On a miss dst is
// returned unchanged.
func (s *Store) ReadValueInto(loc cuckoo.Location, dst []byte) ([]byte, bool) {
	h := slab.Handle(loc)
	out, ok := s.alloc.ReadInto(h, dst)
	if !ok {
		return dst, false
	}
	s.alloc.Touch(h, s.stamp.Load())
	return out, true
}

// ---- Profiling hooks ----

// AdvanceSampleInterval begins a new skewness-sampling interval and returns
// the access counters collected during the one that just ended (paper §IV-B).
func (s *Store) AdvanceSampleInterval(limit int) []uint32 {
	old := s.stamp.Load()
	counts := s.alloc.CollectAccessCounts(old, limit)
	s.stamp.Store(old + 1)
	return counts
}

// Len returns the number of live index entries, the live-object count, in
// O(1).
func (s *Store) Len() int { return s.idx.Len() }

// Index exposes the cuckoo table (read-mostly: stats, capacity).
func (s *Store) Index() *cuckoo.Table { return s.idx }

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
	OrderedKeys            int    // keys in the ordered index (0 if disabled, not yet built or dropped)
	OrderedSplits          uint64 // ordered-index node splits
	OrderedMerges          uint64 // ordered-index node merges
	OrderedMaintained      int    // 1 while the ordered index is maintained, 0 if disabled, not yet built or dropped
	OrderedDrops           uint64 // trees dropped after a write-only stretch
	OrderedRebuilds        uint64 // trees built by a scan: the first, and one after each drop
	OrderedBuildNanos      uint64 // nanoseconds spent in those builds
	LiveObjects            int
	IndexLoadFactor        float64
	AvgInsertBucketsProbed float64
}

// Range iterates every live object, calling fn(key, value) for each until fn
// returns false. It is lock-free (per-chunk seqlock reads
// in the slab arena) and safe to run concurrently with the serving path —
// the durability tier's snapshotter walks the store this way while writes
// continue. The slices passed to fn are reused; fn must copy what it keeps.
func (s *Store) Range(fn func(key, value []byte) bool) { s.alloc.Range(fn) }

// StatsSnapshot returns current counters.
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

		OrderedDrops:      s.orderedDrops.Load(),
		OrderedRebuilds:   s.orderedRebuilds.Load(),
		OrderedBuildNanos: s.orderedBuildNanos.Load(),
	}
	as := s.alloc.StatsSnapshot()
	st.LiveObjects = as.LiveObjects
	st.EvictScan = as.EvictScan
	if s.tree != nil {
		st.OrderedKeys = s.tree.Len()
		st.OrderedSplits, st.OrderedMerges = s.tree.Churn()
		if !s.dropped.Load() {
			st.OrderedMaintained = 1
		}
	}
	st.IndexLoadFactor = s.idx.LoadFactor()
	st.AvgInsertBucketsProbed = s.idx.StatsSnapshot().AvgInsertBuckets
	return st
}
