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
// changed; a missing tree is built first) and serves a batch of ranges from
// it; writers never wait for a scan to finish, except while it builds the
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
//
// A scan is latency-bound, like a point GET: the descent is a chain of
// dependent node misses, and each entry's value sits in its own slab chunk,
// at a random address, so an entry-at-a-time scan pays one memory round trip
// per level and one per entry. ScanBatch overlaps them, the way the batched
// GET does (widebatch.go):
//
//	seek:   the tree positions every range's iterator together, one level
//	        at a time, loading the batch's node lines before it searches any
//	        (ordered.Snapshot.IterBatch)
//	waves:  each range then reads its entries up to scanWave at a time —
//	        pull them from the iterator, gather their chunk lines
//	        (slab AppendPrefetchLines) and key bytes, load them all
//	        (cuckoo.TouchLines), then verify and copy each value in key
//	        order through readScanValue
//
// The loads change no check: every read is still seqlock-verified, with the
// same fallback. Scan, the one-range form, is a batch of one.
package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/cuckoo"
	"repro/internal/ordered"
	"repro/internal/slab"
)

// Ordered reports whether the store maintains the ordered index (and hence
// supports Scan).
func (s *Store) Ordered() bool { return s.tree != nil }

// Scanner pins one snapshot of the ordered index and serves any number of
// range scans from it — the pipeline's SC task creates one Scanner per batch
// so every SCAN in the batch reads the same key-set version. A Scanner is
// cheap (one brief lock hold); it is not safe for concurrent use.
type Scanner struct {
	s    *Store
	snap ordered.Snapshot
}

// NewScanner captures a snapshot of the ordered index. It returns nil when
// the store was built without Config.Ordered.
func (s *Store) NewScanner() *Scanner {
	if !s.Ordered() {
		return nil
	}
	return &Scanner{s: s, snap: s.orderedSnapshot()}
}

// scanWave is how many of a range's entries a scan reads at once. A SCAN of
// limit 16 takes one wave, unless some of its entries were deleted since the
// snapshot.
const scanWave = 16

// scanScratch holds ScanBatch's working memory. A sync.Pool recycles it, so
// a batch of scans allocates nothing once the pool is warm.
type scanScratch struct {
	its   []ordered.Iter // one per range
	keys  [scanWave][]byte
	locs  [scanWave]uint64
	lines []*atomic.Uint64 // the wave's gathered chunk lines
	val   []byte           // the value passed to fn
	sink  uint64           // takes the touch loads
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// Scan iterates live objects with key in [start, end) in ascending key order,
// calling fn(key, value) for each until limit entries have been visited, the
// range is exhausted, or fn returns false. A nil/empty start means the
// smallest key; a nil/empty end means unbounded; limit <= 0 means unlimited.
// It returns the number of entries visited. The slices passed to fn are
// reused; fn must copy what it keeps. It is ScanBatch over one range.
func (sc *Scanner) Scan(start, end []byte, limit int, fn func(key, value []byte) bool) int {
	return sc.ScanBatch([][]byte{start}, [][]byte{end}, []int{limit}, func(_ int, k, v []byte) bool { return fn(k, v) })
}

// ScanBatch runs len(starts) range scans: scan i is Scan(starts[i], ends[i],
// limits[i], ...) with fn(i, key, value) as its callback, and fn returning
// false ends scan i only. The scans run in order, each to its end before the
// next begins, so a caller can tell where one scan's entries stop. ends and
// limits are as long as starts. It returns the number of entries visited in
// all. The slices passed to fn are reused; fn must copy what it keeps.
func (sc *Scanner) ScanBatch(starts, ends [][]byte, limits []int, fn func(i int, key, value []byte) bool) int {
	s := sc.s
	n := len(starts)
	w := scanPool.Get().(*scanScratch)
	if cap(w.its) < n {
		w.its = make([]ordered.Iter, n)
	}
	its := w.its[:n]
	sc.snap.IterBatch(its, starts, ends)
	total, size := 0, 0
	for i := range its {
		limit := limits[i]
		if limit <= 0 {
			limit = int(^uint(0) >> 1)
		}
		visited, bytes := sc.scanRange(w, &its[i], i, limit, fn)
		total += visited
		size += bytes
	}
	// Drop the references into the tree before the scratch goes back.
	clear(its)
	clear(w.keys[:])
	scanPool.Put(w)
	// One add per batch, not per entry: the counters are shared lines.
	s.scans.Add(uint64(n))
	s.scanEntries.Add(uint64(total))
	s.scanBytes.Add(uint64(size))
	return total
}

// scanRange reads scan i's entries from it in waves until limit entries have
// been visited, the range is exhausted, or fn returns false. It returns the
// entries visited and their key and value bytes.
func (sc *Scanner) scanRange(w *scanScratch, it *ordered.Iter, i, limit int, fn func(i int, key, value []byte) bool) (n, size int) {
	alloc := sc.s.alloc
	for n < limit {
		m := 0
		for m < min(scanWave, limit-n) {
			key, loc, ok := it.Next()
			if !ok {
				break
			}
			w.keys[m], w.locs[m] = key, loc
			m++
		}
		if m == 0 {
			return n, size
		}
		// Gather every entry's chunk lines, then load them and the key
		// bytes the verify compares in loops that branch on none of them.
		lines := w.lines[:0]
		for _, loc := range w.locs[:m] {
			lines = alloc.AppendPrefetchLines(lines, slab.Handle(loc))
		}
		w.lines = lines
		sink := cuckoo.TouchLines(lines)
		for _, k := range w.keys[:m] {
			if len(k) > 0 {
				sink += uint64(k[0]) + uint64(k[len(k)-1])
			}
		}
		w.sink += sink
		for j, key := range w.keys[:m] {
			val, ok := sc.readScanValue(key, w.locs[j], w.val[:0])
			if !ok {
				continue // deleted since the snapshot
			}
			w.val = val
			n++
			size += len(key) + len(val)
			if !fn(i, key, val) {
				return n, size
			}
		}
	}
	return n, size
}

// readScanValue reads the value for a snapshot entry into dst: first through
// the snapshot's own location (seqlock-verified — the common case, one chunk
// read), then, if that chunk was since reclaimed or rewritten, through an
// authoritative point lookup. ok is false when the key no longer exists.
func (sc *Scanner) readScanValue(key []byte, loc uint64, dst []byte) ([]byte, bool) {
	s := sc.s
	if out, ok := s.alloc.ReadIfMatch(slab.Handle(loc), key, dst); ok {
		return out, true
	}
	// Snapshot location stale: the object moved (overwrite) or died (delete /
	// eviction). Resolve through the index without touching the point-GET
	// hit/miss counters — scans have their own.
	s.scanFallbacks.Inc()
	if liveLoc, ok := s.lookupLoc(s.hash(key), key); ok {
		if out, ok := s.alloc.ReadIfMatch(slab.Handle(liveLoc), key, dst); ok {
			return out, true
		}
	}
	return nil, false
}

// Scan is the one-shot form of Scanner.Scan: it captures a fresh snapshot,
// runs a single range scan, and reports whether the store is ordered.
func (s *Store) Scan(start, end []byte, limit int, fn func(key, value []byte) bool) (int, bool) {
	sc := s.NewScanner()
	if sc == nil {
		return 0, false
	}
	return sc.Scan(start, end, limit, fn), true
}
