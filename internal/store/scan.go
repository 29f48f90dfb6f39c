// scan.go implements the range-scan read path over the ordered index kept
// beside the cuckoo table.
//
// Each shard optionally carries a B-tree (internal/ordered) that the write
// path keeps in sync with the cuckoo index: a SET of a new key inserts it with
// its global location, a SET of a resident key stores the new location into
// the existing entry, a DELETE (and an eviction victim's retirement) removes
// it. The tree stores locations, not values, so it costs ~40 bytes per live
// object regardless of value size and never pins value memory. It is written
// in place; only nodes a scan's snapshot can still reach are copied first.
//
// Upkeep is paid only while scans read the tree. A shard that takes more than
// 2 × its live keys + 64 Ki tree updates between two scans drops its tree
// (O(1)), and its writes skip the tree from then on; the next scan rebuilds
// it from the shard's arena, resolving every key through the cuckoo index,
// and pays about a third of a microsecond per key once (see dropOrdered and
// orderedSnapshot in store.go).
//
// A Scanner captures every shard's tree snapshot once (O(1) under the tree's
// writer lock, and the same snapshot as last time while the shard's key set
// has not changed; a dropped tree is rebuilt first) and merges them in key
// order; writers never wait for a scan to finish, except on a shard whose
// tree it is rebuilding. The consistency contract is:
//
//   - The KEY SET a scan iterates is a point-in-time snapshot per shard
//     (cross-shard atomicity is not promised — a scan spanning shards may see
//     shard A slightly older than shard B, like any sharded store).
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
	"bytes"

	"repro/internal/cuckoo"
	"repro/internal/ordered"
)

// Ordered reports whether the store maintains the ordered index (and hence
// supports Scan).
func (s *Store) Ordered() bool { return s.shards[0].tree != nil }

// scanHead is one shard's cursor in the N-way merge.
type scanHead struct {
	it  ordered.Iter
	key []byte
	loc uint64
}

// Scanner pins one snapshot of every shard's ordered index and serves any
// number of range scans from it — the pipeline's batched range merge creates
// one Scanner per batch so every SCAN in the batch reads the same key-set
// version. A Scanner is cheap (N brief lock holds); it is not safe for
// concurrent use. Scratch buffers are reused across calls.
type Scanner struct {
	s      *Store
	snaps  []ordered.Snapshot
	heads  []scanHead
	valBuf []byte
}

// NewScanner captures a snapshot of every shard's ordered index. It returns
// nil when the store was built without Config.Ordered.
func (s *Store) NewScanner() *Scanner {
	if !s.Ordered() {
		return nil
	}
	sc := &Scanner{s: s, snaps: make([]ordered.Snapshot, len(s.shards))}
	for i, sh := range s.shards {
		sc.snaps[i] = s.orderedSnapshot(sh)
	}
	return sc
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
	// Prime one cursor per shard. Keys are unique across shards (a key hashes
	// to exactly one), so the merge needs no deduplication.
	sc.heads = sc.heads[:0]
	for _, snap := range sc.snaps {
		it := snap.Iter(start, end)
		if k, v, ok := it.Next(); ok {
			sc.heads = append(sc.heads, scanHead{it: it, key: k, loc: v})
		}
	}
	n := 0
	for n < limit && len(sc.heads) > 0 {
		// Linear min over at most MaxShards heads.
		m := 0
		for i := 1; i < len(sc.heads); i++ {
			if bytes.Compare(sc.heads[i].key, sc.heads[m].key) < 0 {
				m = i
			}
		}
		key, loc := sc.heads[m].key, sc.heads[m].loc
		if k, v, ok := sc.heads[m].it.Next(); ok {
			sc.heads[m].key, sc.heads[m].loc = k, v
		} else {
			sc.heads[m] = sc.heads[len(sc.heads)-1]
			sc.heads = sc.heads[:len(sc.heads)-1]
		}
		val, ok := sc.readScanValue(key, loc)
		if !ok {
			continue // deleted since the snapshot
		}
		n++
		s.scanEntries.Inc()
		s.scanBytes.Add(uint64(len(key) + len(val)))
		if !fn(key, val) {
			break
		}
	}
	return n
}

// readScanValue reads the value for a snapshot entry: first through the
// snapshot's own location (seqlock-verified — the common case, one chunk
// read), then, if that chunk was since reclaimed or rewritten, through an
// authoritative point lookup. ok is false when the key no longer exists.
func (sc *Scanner) readScanValue(key []byte, loc uint64) ([]byte, bool) {
	s := sc.s
	gloc := cuckoo.Location(loc)
	si := shardOfLoc(gloc)
	if si < len(s.shards) {
		sh := s.shards[si]
		if out, ok := sh.alloc.ReadIfMatch(handleOf(gloc), key, sc.valBuf[:0]); ok {
			sc.valBuf = out
			return out, true
		}
	}
	// Snapshot location stale: the object moved (overwrite) or died (delete /
	// eviction). Resolve through the index without touching the point-GET
	// hit/miss counters — scans have their own.
	s.scanFallbacks.Inc()
	_, sh, hv := s.shardFor(key)
	if liveLoc, ok := sh.lookupLoc(hv, key); ok {
		if out, ok := sh.alloc.ReadIfMatch(handleOf(liveLoc), key, sc.valBuf[:0]); ok {
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
