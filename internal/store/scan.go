// scan.go implements the range-scan read path over the ordered index kept
// beside the cuckoo table.
//
// The store optionally carries a B-tree (internal/ordered), built by the
// first scan, that the write path then keeps in sync with the cuckoo index: a
// SET of a new key inserts it with its location, a SET of a resident key
// stores the new location into the existing entry, a DELETE (and an eviction
// victim's retirement) removes it. The tree stores locations, not values, so
// it costs ~40 bytes per live object regardless of value size and never pins
// value memory. It is written in place; only nodes a scan's snapshot can
// still reach are copied first.
//
// Upkeep is paid only while scans read the tree. Until the first scan there
// is no tree, so a load pays nothing for it. A store that takes more than
// 2 × its live keys + 64 Ki tree updates between two scans drops its tree
// (O(1)), and its writes skip the tree from then on. A scan that finds no
// tree builds one from the arena, resolving the keys through the cuckoo
// index in wave sweeps, and pays about half a microsecond per key once (see
// dropOrdered, orderedSnapshot and buildOrdered in store.go).
//
// A Scanner captures the tree's snapshot once (O(1) under the tree's writer
// lock, and the same snapshot as last time while the key set has not
// changed; a missing tree is built first) and walks it in key order;
// writers never wait for a scan to finish, except while it builds the
// tree. The consistency contract is:
//
//   - The KEY SET a scan iterates is one point-in-time snapshot of the whole
//     store.
//
//   - A snapshot entry's LOCATION is a hint, and VALUES are read live: the
//     location may be newer than the snapshot (an overwrite stores into the
//     shared entry) or older (the writer has since copied that node), so every
//     read is verified against the key through the slab's per-chunk seqlock —
//     a scan never returns torn bytes and never touches reclaimed memory. If
//     the location was recycled by an eviction or overwrite, the scan falls
//     back to an authoritative point lookup; a key deleted since the snapshot
//     is skipped. A scan may therefore observe a value NEWER than its
//     snapshot, but never an older, torn, or foreign one.
package store

import (
	"repro/internal/ordered"
	"repro/internal/slab"
)

// Ordered reports whether the store maintains the ordered index (and hence
// supports Scan).
func (s *Store) Ordered() bool { return s.tree != nil }

// Scanner pins one snapshot of the ordered index and serves any number of
// range scans from it — the pipeline's batched range merge creates one
// Scanner per batch so every SCAN in the batch reads the same key-set
// version. A Scanner is cheap (one brief lock hold); it is not safe for
// concurrent use. Scratch buffers are reused across calls.
type Scanner struct {
	s      *Store
	snap   ordered.Snapshot
	valBuf []byte
}

// NewScanner captures a snapshot of the ordered index. It returns nil when
// the store was built without Config.Ordered.
func (s *Store) NewScanner() *Scanner {
	if !s.Ordered() {
		return nil
	}
	return &Scanner{s: s, snap: s.orderedSnapshot()}
}

// Scan iterates live objects with key in [start, end) in ascending key order,
// calling fn(key, value) for each until limit entries have been visited, the
// range is exhausted, or fn returns false. A nil/empty start means the
// smallest key; a nil/empty end means unbounded; limit <= 0 means unlimited.
// It returns the number of entries visited. The slices passed to fn are
// reused; fn must copy what it keeps.
func (sc *Scanner) Scan(start, end []byte, limit int, fn func(key, value []byte) bool) int {
	s := sc.s
	s.scans.Inc()
	if limit <= 0 {
		limit = int(^uint(0) >> 1)
	}
	it := sc.snap.Iter(start, end)
	n, size := 0, 0
	for n < limit {
		key, loc, ok := it.Next()
		if !ok {
			break
		}
		val, ok := sc.readScanValue(key, loc)
		if !ok {
			continue // deleted since the snapshot
		}
		n++
		size += len(key) + len(val)
		if !fn(key, val) {
			break
		}
	}
	// One add per scan, not per entry: the counters are shared lines.
	s.scanEntries.Add(uint64(n))
	s.scanBytes.Add(uint64(size))
	return n
}

// readScanValue reads the value for a snapshot entry: first through the
// snapshot's own location (seqlock-verified — the common case, one chunk
// read), then, if that chunk was since reclaimed or rewritten, through an
// authoritative point lookup. ok is false when the key no longer exists.
func (sc *Scanner) readScanValue(key []byte, loc uint64) ([]byte, bool) {
	s := sc.s
	if out, ok := s.alloc.ReadIfMatch(slab.Handle(loc), key, sc.valBuf[:0]); ok {
		sc.valBuf = out
		return out, true
	}
	// Snapshot location stale: the object moved (overwrite) or died (delete /
	// eviction). Resolve through the index without touching the point-GET
	// hit/miss counters — scans have their own.
	s.scanFallbacks.Inc()
	if liveLoc, ok := s.lookupLoc(s.hash(key), key); ok {
		if out, ok := s.alloc.ReadIfMatch(slab.Handle(liveLoc), key, sc.valBuf[:0]); ok {
			sc.valBuf = out
			return out, true
		}
	}
	return nil, false
}

// Scan is the one-shot form of Scanner.Scan: it captures a fresh snapshot,
// runs a single range merge, and reports whether the store is ordered.
func (s *Store) Scan(start, end []byte, limit int, fn func(key, value []byte) bool) (int, bool) {
	sc := s.NewScanner()
	if sc == nil {
		return 0, false
	}
	return sc.Scan(start, end, limit, fn), true
}
