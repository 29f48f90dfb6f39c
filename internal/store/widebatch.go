package store

// Wide batched GET path — the store-level half of the GPU-analog IN stage.
//
// The scalar path resolves one key at a time: hash → index probe → seqlock
// verify, a chain of dependent cache misses per key. The batched path
// restructures a whole batch into waves, mirroring how a GPU kernel would
// partition the work across compute units:
//
//	wave 0: hash every key (pure arithmetic)
//	waves:  cuckoo.SearchBatch (split + gather / touch / primary scan /
//	        alternate gather, touch and scan for keys with no primary match)
//	touch:  gather every key's first candidate chunk lines (slab
//	        AppendPrefetchLines), then load them (cuckoo.TouchLines)
//	verify: fused KC+RD — seqlock-verify candidates and copy values
//
// The touch before the verify does for the slab what cuckoo.SearchBatch's
// touch does for the buckets: the verify branches on every word it loads
// (seqlock, lengths, key), so on cold chunks it would pay one DRAM round trip
// per key; the touch first resolves every chunk line's address, then loads
// them in a loop with nothing else in it and no branch on what it loads, so
// the batch's chunk misses overlap and the verify reads cache. It changes no
// check: every seqlock and version test runs as before.
//
// The genuine-miss proof amortizes to ONE index Version() check per sweep
// instead of one per key, for the keys the search found no candidate for
// (both their buckets were probed). A key whose candidates all failed
// verification may have had only its primary bucket probed, so it always
// takes the scalar both-bucket, version-validated lookup (readVerified); so
// do all the provisionally-missing keys when a mutation raced the sweep —
// the same staleness contract the scalar GET obeys.
//
// All working memory comes from a pooled scratch, so the batched GET is
// allocation-free at steady state (guarded by TestBatchPathZeroAllocs).

import (
	"sync"
	"sync/atomic"

	"repro/internal/cuckoo"
	"repro/internal/slab"
)

// batchScratch holds every working array of the wide batch path. One scratch
// serves one batch at a time; a sync.Pool recycles them across batches and
// goroutines. A sweep runs over a key-index list (every key of the batch, or
// the stale subset); hv, counts and cands are indexed by position in it.
type batchScratch struct {
	hv     []uint64          // per listed key: hash (wave 0)
	idx    []int32           // key-index list (identity, or the stale subset)
	counts []int32           // per listed key: candidate count from SearchBatch
	miss   []int32           // per sweep: positions of provisionally-missing keys
	cands  []cuckoo.Location // fixed-stride candidate arena (MaxCandidates per key)
	lines  []*atomic.Uint64  // the chunk touch's gathered line addresses
	sc     cuckoo.SearchScratch
	sink   uint64 // takes the chunk touch's loads
}

// identity fills idx with 0..n-1 (every key of the batch) and returns it.
func (sc *batchScratch) identity(n int) []int32 {
	for i := range sc.idx[:n] {
		sc.idx[i] = int32(i)
	}
	return sc.idx[:n]
}

// grow sizes the arrays for n keys.
func (sc *batchScratch) grow(n int) {
	if cap(sc.hv) < n {
		sc.hv = make([]uint64, n)
		sc.idx = make([]int32, n)
		sc.counts = make([]int32, n)
		sc.miss = make([]int32, n)
		sc.cands = make([]cuckoo.Location, n*cuckoo.MaxCandidates)
	}
	sc.hv = sc.hv[:n]
	sc.idx = sc.idx[:n]
	sc.counts = sc.counts[:n]
	sc.miss = sc.miss[:n]
	sc.cands = sc.cands[:n*cuckoo.MaxCandidates]
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// search is waves 0 and on: hash the keys idxs lists (the same hash the table
// reuses for bucket index and signature) and run the table's wave search
// over them, leaving listed key j's candidates at sc.cands[j*MaxCandidates:]
// and their count in sc.counts[j].
func (s *Store) search(keys [][]byte, idxs []int32, sc *batchScratch) {
	m := len(idxs)
	for j, i := range idxs {
		sc.hv[j] = s.hash(keys[i])
	}
	s.idx.SearchBatch(sc.hv[:m], &sc.sc, sc.cands[:m*cuckoo.MaxCandidates], sc.counts[:m])
}

// SearchBatch performs the wide IN(Search) task for a batch of keys: hash
// all keys up front and run them through the cuckoo table's
// software-pipelined wave search. Key i's candidate locations are appended
// to dst with their span recorded in lo[i]:hi[i]. lo and hi must have
// length ≥ len(keys). They are a prefix of IndexSearch's: its primary
// bucket's matches when there are any, else its alternate bucket's. Like
// IndexSearch, the returned locations may be stale by the time they are
// verified; the read stage (ReadCandidatesBatch) owns the staleness contract
// and re-probes both buckets for a key none of whose candidates verifies.
func (s *Store) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	n := len(keys)
	if n == 0 {
		return dst
	}
	sc := scratchPool.Get().(*batchScratch)
	sc.grow(n)
	s.search(keys, sc.identity(n), sc)
	for i := 0; i < n; i++ {
		base := i * cuckoo.MaxCandidates
		lo[i] = int32(len(dst))
		dst = append(dst, sc.cands[base:base+int(sc.counts[i])]...)
		hi[i] = int32(len(dst))
	}
	scratchPool.Put(sc)
	return dst
}

// sweep runs the authoritative wide search + fused KC+RD verify for the keys
// idxs lists: one Version() read, the search waves, a touch of each key's
// first candidate chunk, then a verify wave that seqlock-reads each key's
// candidates into vals. A key the search found no candidate for is a
// genuine miss if the index version did not move during the sweep — one
// amortized check for the whole list. A key whose candidates all failed
// verification (its alternate bucket may never have been probed), and every
// provisional miss when the version moved, retries through the scalar
// both-bucket, version-validated lookup. Hit values are appended to vals
// with spans in vlo/vhi; vlo[i] = -1 marks a miss. Returns the grown vals
// and the hit count. Counters: hits/misses are maintained here (the caller
// counts gets).
func (s *Store) sweep(keys [][]byte, idxs []int32, sc *batchScratch, vals []byte, vlo, vhi []int32) ([]byte, int) {
	stamp := s.stamp.Load()
	hits := 0
	v1 := s.idx.Version()
	s.search(keys, idxs, sc)
	// Touch each key's first candidate chunk before verifying any.
	lines := sc.lines[:0]
	for j := range idxs {
		if sc.counts[j] > 0 {
			lines = s.alloc.AppendPrefetchLines(lines, slab.Handle(sc.cands[j*cuckoo.MaxCandidates]))
		}
	}
	sc.lines = lines
	sc.sink = cuckoo.TouchLines(lines)
	nmiss := 0
	for j, i := range idxs {
		base := j * cuckoo.MaxCandidates
		mark := int32(len(vals))
		hit := false
		for c := 0; c < int(sc.counts[j]); c++ {
			h := slab.Handle(sc.cands[base+c])
			if out, ok := s.alloc.ReadIfMatch(h, keys[i], vals); ok {
				vals = out
				vlo[i], vhi[i] = mark, int32(len(vals))
				s.alloc.Touch(h, stamp)
				hits++
				hit = true
				break
			}
		}
		if !hit {
			sc.miss[nmiss] = int32(j)
			nmiss++
		}
	}
	s.hits.Add(uint64(hits))
	if nmiss == 0 {
		return vals, hits
	}
	raced := s.idx.Version() != v1
	genuine := 0
	for _, j := range sc.miss[:nmiss] {
		i := idxs[j]
		if !raced && sc.counts[j] == 0 {
			// Both buckets probed and no index mutation raced the sweep:
			// a genuine miss, proven by the one version check above.
			vlo[i], vhi[i] = -1, -1
			genuine++
			continue
		}
		// The key's candidates all failed verification, and if they came
		// from its primary bucket its alternate was never probed; or a
		// writer raced the sweep. The scalar reprobe of both buckets decides
		// (readVerified maintains hit/miss counters itself).
		mark := int32(len(vals))
		if out, ok := s.readVerified(sc.hv[j], keys[i], vals); ok {
			vals = out
			vlo[i], vhi[i] = mark, int32(len(vals))
			hits++
		} else {
			vlo[i], vhi[i] = -1, -1
		}
	}
	s.misses.Add(uint64(genuine))
	return vals, hits
}

// GetBatch performs a whole batched GET — the fused wide IN(Search) + KC+RD
// pass the pipeline runs when search and read share a stage. Hit values are
// appended to vals (which grows like GetInto's dst; spans stay valid across
// growth because they are offsets); vlo[i]:vhi[i] is key i's value span,
// with vlo[i] = -1 marking a miss. vlo and vhi must have length ≥ len(keys).
// It returns the grown vals and the number of hits. With pre-sized arenas
// the path performs no allocations.
func (s *Store) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	n := len(keys)
	if n == 0 {
		return vals, 0
	}
	s.gets.Add(uint64(n))
	sc := scratchPool.Get().(*batchScratch)
	sc.grow(n)
	vals, hits := s.sweep(keys, sc.identity(n), sc, vals, vlo, vhi)
	scratchPool.Put(sc)
	return vals, hits
}

// ReadCandidatesBatch performs the wide fused KC+RD task over candidates a
// previous SearchBatch (possibly an earlier pipeline stage) collected: key
// i's candidates are cands[lo[i]:hi[i]]. Verified values are appended to
// vals with spans in vlo/vhi (vlo[i] = -1 marks a miss); it returns the
// grown vals and the hit count. The keys are not hashed unless a key needs
// the fallback below.
//
// Like the scalar ReadCandidates, stale candidates must not manufacture a
// miss: every key whose candidates all fail verification — stale, or a
// location the store never issued, which the slab's bounds-checked lookup
// rejects — is hashed and re-resolved through the authoritative wide sweep
// (fresh search + verify under an amortized version check), which also
// covers keys with no candidates at all.
func (s *Store) ReadCandidatesBatch(keys [][]byte, cands []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	n := len(keys)
	if n == 0 {
		return vals, 0
	}
	s.gets.Add(uint64(n))
	sc := scratchPool.Get().(*batchScratch)
	sc.grow(n)
	stamp := s.stamp.Load()
	// Touch each key's first candidate chunk before verifying any (see the
	// file comment).
	lines := sc.lines[:0]
	for i := 0; i < n; i++ {
		if lo[i] != hi[i] {
			lines = s.alloc.AppendPrefetchLines(lines, slab.Handle(cands[lo[i]]))
		}
	}
	sc.lines = lines
	sc.sink = cuckoo.TouchLines(lines)
	hits := 0
	stale := 0
	for i := 0; i < n; i++ {
		mark := int32(len(vals))
		hit := false
		for _, loc := range cands[lo[i]:hi[i]] {
			h := slab.Handle(loc)
			if out, ok := s.alloc.ReadIfMatch(h, keys[i], vals); ok {
				vals = out
				vlo[i], vhi[i] = mark, int32(len(vals))
				s.alloc.Touch(h, stamp)
				hits++
				hit = true
				break
			}
		}
		if !hit {
			sc.idx[stale] = int32(i)
			stale++
		}
	}
	s.hits.Add(uint64(hits))
	if stale > 0 {
		// Re-resolve the candidate-stale keys wide.
		var h int
		vals, h = s.sweep(keys, sc.idx[:stale], sc, vals, vlo, vhi)
		hits += h
	}
	scratchPool.Put(sc)
	return vals, hits
}
