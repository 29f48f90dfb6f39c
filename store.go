package dido

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// StoreConfig configures an embeddable Store.
type StoreConfig struct {
	// MemoryBytes is the key-value arena budget. When it fills, a SET evicts
	// from its own size class with a per-class CLOCK (second-chance) sweep,
	// the paper's memory-management task.
	MemoryBytes int64
	// IndexEntries sizes the cuckoo index; 0 sizes it for the most objects
	// the arena can hold, MemoryBytes/64 (the smallest slab chunk), with a
	// floor of 1024.
	IndexEntries int
	// Seed makes hashing deterministic (0 picks a fixed default).
	Seed uint64
	// Ordered keeps an ordered index (a lazily copied B-tree) beside the
	// cuckoo table, enabling Scan; scans never block writers. While the tree
	// is maintained, a write pays one in-place tree descent, plus an insert
	// or delete when the key set changes. A store that takes more than 2 ×
	// its live keys + 64 Ki writes with no scan drops its tree, so its
	// writes pay nothing for it, and the next Scan rebuilds the tree from
	// the arena. False, the zero value, keeps the
	// point-op-only store, where Scan reports ok=false; dido-server turns
	// it on unless started with -ordered=false.
	Ordered bool
}

// Store is a concurrent in-memory key-value store: a cuckoo-hash index over
// a slab arena with per-class CLOCK eviction. All methods are safe for
// concurrent use. Values returned by Get are copies.
type Store struct {
	inner *store.Store
}

// NewStore returns a store with the given configuration. It panics if
// MemoryBytes is not positive.
func NewStore(cfg StoreConfig) *Store {
	return &Store{inner: store.New(store.Config{
		MemoryBytes:  cfg.MemoryBytes,
		IndexEntries: cfg.IndexEntries,
		Seed:         cfg.Seed,
		Ordered:      cfg.Ordered,
	})}
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	return s.inner.Get(key)
}

// Set stores value under key, overwriting any prior value. Under memory
// pressure the size class's CLOCK hand evicts an object not referenced since
// the hand last passed it. It returns an error when the object exceeds the largest slab class or the
// arena cannot hold it.
func (s *Store) Set(key, value []byte) error {
	_, _, err := s.inner.Set(key, value)
	return err
}

// Delete removes key, reporting whether an object was removed.
func (s *Store) Delete(key []byte) bool {
	return s.inner.Delete(key)
}

// Ordered reports whether the store was built with StoreConfig.Ordered and
// hence supports Scan.
func (s *Store) Ordered() bool { return s.inner.Ordered() }

// Scan iterates live objects with key in [start, end) in ascending key
// order, calling fn(key, value) until limit entries have been visited, the
// range is exhausted, or fn returns false. A nil/empty start means the
// smallest key; a nil/empty end means unbounded; limit <= 0 means unlimited.
// It returns the number of entries visited and whether the store is ordered
// (ok=false means the scan did not run — build the store with
// StoreConfig.Ordered). The key set iterated is a snapshot of the whole
// store taken at the call; values are read live through the slab seqlock, so a
// scan never observes torn or reclaimed bytes (see internal/store/scan.go
// for the full contract). The slices passed to fn are reused; fn must copy
// what it keeps.
func (s *Store) Scan(start, end []byte, limit int, fn func(key, value []byte) bool) (int, bool) {
	return s.inner.Scan(start, end, limit, fn)
}

// Range iterates every live object, calling fn(key, value) until it returns
// false. Lock-free and safe alongside serving; the slices are reused across
// calls, so fn must copy what it keeps. The durability tier's snapshotter is
// the primary consumer.
func (s *Store) Range(fn func(key, value []byte) bool) {
	s.inner.Range(fn)
}

// StoreStats is a snapshot of store counters.
type StoreStats struct {
	Gets, Sets, Deletes uint64
	Hits, Misses        uint64
	Evictions           uint64
	EvictScan           uint64 // chunks the eviction CLOCK hand examined
	// Range-scan counters (all zero unless StoreConfig.Ordered).
	Scans           uint64 // SCAN operations executed
	ScanEntries     uint64 // entries returned across all scans
	ScanBytes       uint64 // key+value bytes returned across all scans
	ScanFallbacks   uint64 // snapshot locations gone stale, re-resolved via the index
	LiveObjects     int
	OrderedKeys     int    // keys in the ordered index (LiveObjects while it is maintained)
	OrderedSplits   uint64 // ordered-index node splits
	OrderedMerges   uint64 // ordered-index node merges
	IndexLoadFactor float64

	// Ordered-index upkeep: the store drops its tree after more than 2 ×
	// its live keys + 64 Ki writes with no scan, and the next scan rebuilds
	// it.
	OrderedMaintained int    // 1 while the tree is maintained, 0 if disabled or dropped
	OrderedDrops      uint64 // trees dropped
	OrderedRebuilds   uint64 // dropped trees rebuilt by a scan
}

// CollectMetrics appends the store's counters to w — the store's half of the
// admin endpoint's Collect callback (the server contributes the serving and
// pipeline metrics, see Server.CollectMetrics).
func (s *Store) CollectMetrics(w *obs.MetricsWriter) {
	st := s.Stats()
	w.Counter("dido_store_gets_total", "GET operations executed.", st.Gets)
	w.Counter("dido_store_sets_total", "SET operations executed.", st.Sets)
	w.Counter("dido_store_deletes_total", "DELETE operations executed.", st.Deletes)
	w.Counter("dido_store_hits_total", "GETs that found the key.", st.Hits)
	w.Counter("dido_store_misses_total", "GETs that missed.", st.Misses)
	w.Counter("dido_store_evictions_total", "Objects evicted to fit new SETs.", st.Evictions)
	w.Counter("dido_store_evict_scan_total", "Chunks the eviction CLOCK hand examined, victims included; over evictions_total, chunks examined per eviction.", st.EvictScan)
	w.Counter("dido_scan_requests_total", "SCAN operations executed.", st.Scans)
	w.Counter("dido_scan_entries_total", "Entries returned across all SCANs.", st.ScanEntries)
	w.Counter("dido_scan_bytes_total", "Key+value bytes returned across all SCANs.", st.ScanBytes)
	w.Counter("dido_scan_fallbacks_total", "Scan snapshot locations re-resolved through the index after going stale.", st.ScanFallbacks)
	w.Gauge("dido_store_live_objects", "Objects currently stored.", float64(st.LiveObjects))
	w.Gauge("dido_store_ordered_keys", "Keys in the ordered index (0 when disabled or dropped).", float64(st.OrderedKeys))
	w.Counter("dido_store_ordered_splits_total", "Ordered-index B-tree node splits, root splits included.", st.OrderedSplits)
	w.Counter("dido_store_ordered_merges_total", "Ordered-index B-tree node merges.", st.OrderedMerges)
	w.Gauge("dido_store_ordered_maintained_shards", "1 while the ordered index is maintained; 0 when it is disabled or was dropped after a write-only stretch.", float64(st.OrderedMaintained))
	w.Counter("dido_store_ordered_drops_total", "Ordered indexes dropped after more than 2 x live keys + 64 Ki writes with no scan.", st.OrderedDrops)
	w.Counter("dido_store_ordered_rebuilds_total", "Dropped ordered indexes rebuilt from the arena by a scan.", st.OrderedRebuilds)
	w.Gauge("dido_store_index_load_factor", "Cuckoo index occupancy in [0,1].", st.IndexLoadFactor)
}

// Stats returns current counters.
func (s *Store) Stats() StoreStats {
	st := s.inner.StatsSnapshot()
	return StoreStats{
		Gets:            st.Gets,
		Sets:            st.Sets,
		Deletes:         st.Deletes,
		Hits:            st.Hits,
		Misses:          st.Misses,
		Evictions:       st.Evictions,
		EvictScan:       st.EvictScan,
		Scans:           st.Scans,
		ScanEntries:     st.ScanEntries,
		ScanBytes:       st.ScanBytes,
		ScanFallbacks:   st.ScanFallbacks,
		LiveObjects:     st.LiveObjects,
		OrderedKeys:     st.OrderedKeys,
		OrderedSplits:   st.OrderedSplits,
		OrderedMerges:   st.OrderedMerges,
		IndexLoadFactor: st.IndexLoadFactor,

		OrderedMaintained: st.OrderedMaintained,
		OrderedDrops:      st.OrderedDrops,
		OrderedRebuilds:   st.OrderedRebuilds,
	}
}
