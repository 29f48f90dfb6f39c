package store

// Wide batched GET path — the store-level half of the GPU-analog IN stage.
//
// The scalar path resolves one key at a time: hash → shard → index probe →
// seqlock verify, a chain of dependent cache misses per key. The batched
// path restructures a whole batch into shard-grouped waves, mirroring how a
// GPU kernel would partition the work across compute units:
//
//	wave 0: hash every key, route it to its shard (pure arithmetic)
//	group:  counting-sort the key indices by shard — each shard's keys
//	        become one contiguous sub-batch
//	per shard:
//	  wave 1-3: cuckoo.SearchBatch (split / primary / alternate waves)
//	  verify:   fused KC+RD — seqlock-verify candidates and copy values
//
// Shard grouping matters twice: the sub-batch walks one table's buckets
// (better locality, no shard pointer chasing inside the wave), and the
// genuine-miss proof amortizes to ONE index Version() check per shard sweep
// instead of one per key — only when a mutation raced the sweep do the
// provisionally-missing keys fall back to the scalar version-validated
// lookup (readVerified), the same staleness contract the scalar GET obeys.
//
// All working memory comes from a pooled scratch, so the batched GET is
// allocation-free at steady state (guarded by TestBatchPathZeroAllocs).

import (
	"sync"

	"repro/internal/cuckoo"
)

// batchScratch holds every working array of the wide batch path. One scratch
// serves one batch at a time; a sync.Pool recycles them across batches and
// goroutines.
type batchScratch struct {
	hv     []uint64          // per-key hash (wave 0)
	si     []uint8           // per-key shard id (wave 0)
	idx    []int32           // input key-index list (identity, or the stale subset)
	order  []int32           // key indices grouped by shard (counting sort of idx)
	subH   []uint64          // hashes in grouped order, per-shard contiguous
	counts []int32           // per grouped key: candidate count from SearchBatch
	miss   []int32           // per sweep: provisionally-missing key indices
	cands  []cuckoo.Location // fixed-stride candidate arena (MaxCandidates per key)
	start  [MaxShards + 1]int32
	sc     cuckoo.SearchScratch
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
		sc.si = make([]uint8, n)
		sc.idx = make([]int32, n)
		sc.order = make([]int32, n)
		sc.subH = make([]uint64, n)
		sc.counts = make([]int32, n)
		sc.miss = make([]int32, n)
		sc.cands = make([]cuckoo.Location, n*cuckoo.MaxCandidates)
	}
	sc.hv = sc.hv[:n]
	sc.si = sc.si[:n]
	sc.idx = sc.idx[:n]
	sc.order = sc.order[:n]
	sc.subH = sc.subH[:n]
	sc.counts = sc.counts[:n]
	sc.miss = sc.miss[:n]
	sc.cands = sc.cands[:n*cuckoo.MaxCandidates]
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// hashAll is wave 0: hash every key once (the same hash the shard's table
// reuses for bucket index and signature) and route it to its shard.
func (s *Store) hashAll(keys [][]byte, sc *batchScratch) {
	mask := s.shardMask
	for i, k := range keys {
		hv := cuckoo.Hash(k, s.seed)
		sc.hv[i] = hv
		sc.si[i] = uint8((hv >> routeShift) & mask)
	}
}

// groupByShard counting-sorts the key indices in idxs into sc.order so each
// shard's keys are contiguous (span sc.start[si] .. sc.start[si+1]), and
// gathers their hashes into sc.subH in the same order. m is the number of
// grouped keys (len(idxs)).
func (s *Store) groupByShard(idxs []int32, sc *batchScratch) {
	var cnt [MaxShards]int32
	for _, i := range idxs {
		cnt[sc.si[i]]++
	}
	n := len(s.shards)
	sc.start[0] = 0
	for si := 0; si < n; si++ {
		sc.start[si+1] = sc.start[si] + cnt[si]
	}
	var pos [MaxShards]int32
	copy(pos[:], sc.start[:n])
	for _, i := range idxs {
		p := pos[sc.si[i]]
		sc.order[p] = i
		sc.subH[p] = sc.hv[i]
		pos[sc.si[i]]++
	}
}

// SearchBatch performs the wide IN(Search) task for a batch of keys: hash
// all keys up front, group them by shard, and run each shard's sub-batch
// through the cuckoo table's software-pipelined wave search. Key i's
// candidate locations are appended to dst with their span recorded in
// lo[i]:hi[i] (spans are per key, not ordered within dst). lo and hi must
// have length ≥ len(keys). Like IndexSearch, the returned locations carry
// their shard id and may be stale by the time they are verified; the read
// stage owns the staleness contract.
func (s *Store) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	n := len(keys)
	if n == 0 {
		return dst
	}
	sc := scratchPool.Get().(*batchScratch)
	sc.grow(n)
	s.hashAll(keys, sc)
	s.groupByShard(sc.identity(n), sc)
	for si := range s.shards {
		glo, ghi := sc.start[si], sc.start[si+1]
		if glo == ghi {
			continue
		}
		s.shards[si].idx.SearchBatch(sc.subH[glo:ghi], &sc.sc,
			sc.cands[int(glo)*cuckoo.MaxCandidates:int(ghi)*cuckoo.MaxCandidates],
			sc.counts[glo:ghi])
	}
	for j := 0; j < n; j++ {
		i := sc.order[j]
		base := j * cuckoo.MaxCandidates
		lo[i] = int32(len(dst))
		dst = append(dst, sc.cands[base:base+int(sc.counts[j])]...)
		hi[i] = int32(len(dst))
	}
	scratchPool.Put(sc)
	return dst
}

// sweepShard runs the authoritative wide search + fused KC+RD verify for one
// shard's grouped keys (positions glo..ghi of sc.order): one Version() read,
// the three search waves, then a verify wave that seqlock-reads each key's
// candidates into vals. Keys that miss every candidate are genuine misses if
// the shard's index version did not move during the sweep — one amortized
// check for the whole sub-batch; otherwise only they retry through the
// scalar version-validated lookup. Hit values are appended to vals with
// spans in vlo/vhi; vlo[i] = -1 marks a miss. Returns the grown vals and the
// shard's hit count. Counters: hits/misses are maintained here (the caller
// counts gets).
func (s *Store) sweepShard(si int, glo, ghi int32, keys [][]byte, sc *batchScratch, vals []byte, vlo, vhi []int32) ([]byte, int) {
	m := int(ghi - glo)
	if m == 0 {
		return vals, 0
	}
	sh := s.shards[si]
	stamp := s.stamp.Load()
	hits := 0
	v1 := sh.idx.Version()
	sh.idx.SearchBatch(sc.subH[glo:ghi], &sc.sc,
		sc.cands[int(glo)*cuckoo.MaxCandidates:int(ghi)*cuckoo.MaxCandidates],
		sc.counts[glo:ghi])
	nmiss := 0
	for j := 0; j < m; j++ {
		i := sc.order[int(glo)+j]
		base := (int(glo) + j) * cuckoo.MaxCandidates
		mark := int32(len(vals))
		hit := false
		for c := 0; c < int(sc.counts[int(glo)+j]); c++ {
			h := handleOf(sc.cands[base+c])
			if out, ok := sh.alloc.ReadIfMatch(h, keys[i], vals); ok {
				vals = out
				vlo[i], vhi[i] = mark, int32(len(vals))
				sh.alloc.Touch(h, stamp)
				hits++
				hit = true
				break
			}
		}
		if !hit {
			sc.miss[nmiss] = i
			nmiss++
		}
	}
	s.hits.Add(uint64(hits))
	if nmiss == 0 {
		return vals, hits
	}
	if sh.idx.Version() == v1 {
		// No index mutation raced the sweep: every provisional miss is
		// genuine, proven by one version check instead of one per key.
		for _, i := range sc.miss[:nmiss] {
			vlo[i], vhi[i] = -1, -1
		}
		s.misses.Add(uint64(nmiss))
		return vals, hits
	}
	// A writer raced the sweep; only the provisionally-missing keys pay the
	// scalar reprobe (readVerified maintains hit/miss counters itself).
	for _, i := range sc.miss[:nmiss] {
		mark := int32(len(vals))
		if out, ok := s.readVerified(sh, sc.hv[i], keys[i], vals); ok {
			vals = out
			vlo[i], vhi[i] = mark, int32(len(vals))
			hits++
		} else {
			vlo[i], vhi[i] = -1, -1
		}
	}
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
	s.hashAll(keys, sc)
	hits := 0
	s.groupByShard(sc.identity(n), sc)
	for si := range s.shards {
		var h int
		vals, h = s.sweepShard(si, sc.start[si], sc.start[si+1], keys, sc, vals, vlo, vhi)
		hits += h
	}
	scratchPool.Put(sc)
	return vals, hits
}

// ReadCandidatesBatch performs the wide fused KC+RD task over candidates a
// previous SearchBatch (possibly an earlier pipeline stage) collected: key
// i's candidates are cands[lo[i]:hi[i]]. Verified values are appended to
// vals with spans in vlo/vhi (vlo[i] = -1 marks a miss); it returns the
// grown vals and the hit count.
//
// Like the scalar ReadCandidates, stale candidates must not manufacture a
// miss: every key whose candidates all fail verification is re-resolved
// through the authoritative wide sweep (fresh search + verify under an
// amortized version check), which also covers keys with no candidates at
// all.
func (s *Store) ReadCandidatesBatch(keys [][]byte, cands []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	n := len(keys)
	if n == 0 {
		return vals, 0
	}
	s.gets.Add(uint64(n))
	sc := scratchPool.Get().(*batchScratch)
	sc.grow(n)
	s.hashAll(keys, sc)
	stamp := s.stamp.Load()
	hits := 0
	stale := 0
	for i := 0; i < n; i++ {
		si := int(sc.si[i])
		sh := s.shards[si]
		mark := int32(len(vals))
		hit := false
		for _, loc := range cands[lo[i]:hi[i]] {
			if shardOfLoc(loc) != si {
				continue // foreign-shard candidate: cannot be key i's object
			}
			h := handleOf(loc)
			if out, ok := sh.alloc.ReadIfMatch(h, keys[i], vals); ok {
				vals = out
				vlo[i], vhi[i] = mark, int32(len(vals))
				sh.alloc.Touch(h, stamp)
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
		// Re-resolve the candidate-stale keys wide: group the subset by
		// shard and run the authoritative sweep over it.
		s.groupByShard(sc.idx[:stale], sc)
		for si := range s.shards {
			var h int
			vals, h = s.sweepShard(si, sc.start[si], sc.start[si+1], keys, sc, vals, vlo, vhi)
			hits += h
		}
	}
	scratchPool.Put(sc)
	return vals, hits
}
