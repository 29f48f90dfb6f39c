// Package cuckoo implements the index data structure of the DIDO / Mega-KV
// design: a set-associative cuckoo hash table storing compact key signatures
// and opaque value locations (paper §II-B, §IV-B; Mega-KV [1]; partial-key
// cuckoo hashing per MemC3 [6]).
//
// Layout. The table is an array of buckets, each with 8 slots. A slot packs a
// 16-bit key signature and a 48-bit location handle into one uint64, accessed
// atomically — this mirrors the GPU-friendly flat layout of Mega-KV and lets
// the CPU and the (simulated) GPU operate on the same structure with
// fine-grained atomics, exactly the concurrency discipline the paper
// describes in §III-B2: compare-exchange for Insert/Delete, atomic loads for
// Search.
//
// Because signatures are short, Search returns *candidate* locations; the
// caller must compare the full key stored at each location (the pipeline's KC
// task) to reject false positives.
package cuckoo

import (
	"fmt"
	"sync/atomic"

	"repro/internal/stats"
)

// SlotsPerBucket is the bucket associativity. Mega-KV uses wide buckets so a
// GPU wavefront can probe all slots of a bucket in lockstep.
const SlotsPerBucket = 8

// Location is an opaque reference to a stored object (a slab handle in this
// system). The zero Location is reserved to mean "empty slot"; valid
// locations are 1 .. 2^48-1.
type Location uint64

// maxLocation is the largest representable location (48 bits).
const maxLocation = 1<<48 - 1

// entry packing: [16-bit signature | 48-bit location].
func pack(sig uint16, loc Location) uint64 {
	return uint64(sig)<<48 | uint64(loc)
}

func unpack(e uint64) (uint16, Location) {
	return uint16(e >> 48), Location(e & maxLocation)
}

// Table is a concurrent cuckoo hash index. All methods are safe for
// concurrent use.
type Table struct {
	buckets []bucket
	mask    uint64
	seed    uint64

	// muts advances on every successful Insert or Delete and on every
	// displacement kick; readers use it to detect mutations that raced their
	// search (see Version).
	muts atomic.Uint64
	// testKick, when set by a test, runs between a kick's copy into the
	// victim's alternate bucket and the clear of its old slot.
	testKick func()
	// entries is the occupied-slot count, kept beside muts: +1 per
	// successful Insert, −1 per successful Delete. Kicks move an entry
	// without changing it, so Len is O(1).
	entries atomic.Int64

	// Operation statistics, used by the cost model to estimate per-operation
	// memory accesses at runtime (paper §IV-B measures the average number of
	// accessed buckets for Insert online).
	searches      stats.Counter
	inserts       stats.Counter
	deletes       stats.Counter
	insertBuckets stats.Counter // total buckets touched by Insert ops
	failedInserts stats.Counter
	kicks         stats.Counter
}

type bucket struct {
	slots [SlotsPerBucket]atomic.Uint64
}

// New returns a table with at least minBuckets buckets (rounded up to a power
// of two) hashing with the given seed. Capacity is buckets × SlotsPerBucket
// entries; cuckoo tables sustain ~90%+ load factor at associativity 8.
func New(minBuckets int, seed uint64) *Table {
	if minBuckets < 1 {
		minBuckets = 1
	}
	n := 1
	for n < minBuckets {
		n <<= 1
	}
	return &Table{
		buckets: make([]bucket, n),
		mask:    uint64(n - 1),
		seed:    seed,
	}
}

// NewForCapacity returns a table sized for n entries at the given target load
// factor (0 < load ≤ 1).
func NewForCapacity(n int, load float64, seed uint64) *Table {
	if load <= 0 || load > 1 {
		panic("cuckoo: load factor must be in (0, 1]")
	}
	slots := float64(n) / load
	return New(int(slots/SlotsPerBucket)+1, seed)
}

// Buckets returns the number of buckets.
func (t *Table) Buckets() int { return len(t.buckets) }

// Capacity returns the total number of slots.
func (t *Table) Capacity() int { return len(t.buckets) * SlotsPerBucket }

// Seed returns the hash seed the table was built with, for callers that
// precompute Hash values to feed SearchBufHash or SearchBatch.
func (t *Table) Seed() uint64 { return t.seed }

// split derives the primary bucket index (low bits) and the 16-bit
// signature (top 16 bits) from a key's Hash(key, seed). The alternate bucket
// is sig-derived (partial-key cuckoo hashing), so an entry can be displaced
// without access to the full key.
func (t *Table) split(h uint64) (uint64, uint16) {
	sig := uint16(h >> 48)
	if sig == 0 {
		sig = 1 // avoid all-zero entries for valid locations
	}
	return h & t.mask, sig
}

// altBucket returns the partner bucket for (b, sig).
func (t *Table) altBucket(b uint64, sig uint16) uint64 {
	// Multiply by an odd constant to spread the signature, as in MemC3.
	return (b ^ (uint64(sig) * 0xc6a4a7935bd1e995)) & t.mask
}

// Search returns all candidate locations whose signature matches key,
// appending to dst (which may be nil). It also reports the number of buckets
// probed. Multiple candidates are possible (signature collisions, or a
// transient duplicate during displacement); callers must verify with a full
// key comparison.
func (t *Table) Search(key []byte, dst []Location) ([]Location, int) {
	var buf [MaxCandidates]Location
	n, probed := t.SearchBuf(key, &buf)
	return append(dst, buf[:n]...), probed
}

// MaxCandidates is the most locations a single Search can yield: both home
// buckets full of colliding signatures.
const MaxCandidates = 2 * SlotsPerBucket

// SearchBuf is Search into a caller-provided fixed buffer, returning the
// candidate count and buckets probed. Because buf is a pointer to a
// fixed-size array rather than a returned slice, a stack-allocated buffer
// does not escape — this is the zero-allocation GET path.
func (t *Table) SearchBuf(key []byte, buf *[MaxCandidates]Location) (n, probed int) {
	return t.SearchBufHash(hash64(key, t.seed), buf)
}

// SearchBufHash is SearchBuf for callers that already computed
// Hash(key, t seed), saving a second key hash on the GET hot path.
func (t *Table) SearchBufHash(h uint64, buf *[MaxCandidates]Location) (n, probed int) {
	b1, sig := t.split(h)
	probed = 1
	n = t.scanBucketInto(b1, sig, buf, 0)
	b2 := t.altBucket(b1, sig)
	if b2 != b1 {
		probed++
		n = t.scanBucketInto(b2, sig, buf, n)
	}
	t.searches.Inc()
	return n, probed
}

func (t *Table) scanBucketInto(b uint64, sig uint16, buf *[MaxCandidates]Location, n int) int {
	bk := &t.buckets[b]
	for i := range bk.slots {
		e := bk.slots[i].Load()
		if e == 0 {
			continue
		}
		s, loc := unpack(e)
		if s == sig {
			buf[n] = loc
			n++
		}
	}
	return n
}

// Insert adds (key → loc). It returns false if the table could not place the
// entry within the displacement bound (effectively full). Inserting the same
// key twice yields two candidates on Search; the store layer is responsible
// for deleting stale index entries when overwriting.
//
// Displacement uses a BFS over eviction paths (as in MemC3): the path to an
// empty slot is found first, then entries are moved backwards along it, so no
// entry is ever left homeless even when Insert ultimately fails.
func (t *Table) Insert(key []byte, loc Location) bool { return t.InsertHash(hash64(key, t.seed), loc) }

// InsertHash is Insert for callers that already computed the key's hash
// (see Hash), saving a second hash of the key.
func (t *Table) InsertHash(h uint64, loc Location) bool {
	if loc == 0 || loc > maxLocation {
		panic(fmt.Sprintf("cuckoo: invalid location %d", loc))
	}
	b1, sig := t.split(h)
	t.inserts.Inc()
	touched := 2
	defer func() { t.insertBuckets.Add(uint64(touched)) }()

	b2 := t.altBucket(b1, sig)
	for attempt := 0; attempt < 4; attempt++ {
		if t.tryPlace(b1, sig, loc) || t.tryPlace(b2, sig, loc) {
			t.muts.Add(1)
			t.entries.Add(1)
			return true
		}
		moved, ok := t.bfsInsert(b1, b2, sig, loc)
		touched += moved
		if ok {
			t.muts.Add(1)
			t.entries.Add(1)
			return true
		}
	}
	t.failedInserts.Inc()
	return false
}

// pathNode is one step of a BFS eviction path.
type pathNode struct {
	bucket uint64
	slot   int // slot within parent's bucket whose eviction leads here
	parent int32
}

// bfsInsert searches breadth-first for a chain of displacements ending at a
// bucket with an empty slot, then executes the chain backwards with CAS
// moves. It returns the number of buckets it touched and whether the insert
// landed. Concurrent mutations can invalidate the found path; callers retry.
func (t *Table) bfsInsert(b1, b2 uint64, sig uint16, loc Location) (int, bool) {
	const maxNodes = 512
	nodes := make([]pathNode, 0, 64)
	nodes = append(nodes,
		pathNode{bucket: b1, parent: -1},
		pathNode{bucket: b2, parent: -1})
	for i := 0; i < len(nodes) && len(nodes) < maxNodes; i++ {
		b := nodes[i].bucket
		for s := 0; s < SlotsPerBucket; s++ {
			e := t.buckets[b].slots[s].Load()
			if e == 0 {
				// Found an empty slot; walk the path backwards.
				return len(nodes), t.executePath(nodes, int32(i), s, b1, b2, sig, loc)
			}
			esig, _ := unpack(e)
			nodes = append(nodes, pathNode{
				bucket: t.altBucket(b, esig),
				slot:   s,
				parent: int32(i),
			})
			if len(nodes) >= maxNodes {
				break
			}
		}
	}
	return len(nodes), false
}

// executePath moves entries backwards along the BFS path so that a slot in
// one of the two home buckets frees up, then places (sig, loc) there. endIdx
// is the node whose bucket holds the empty slot emptySlot.
func (t *Table) executePath(nodes []pathNode, endIdx int32, emptySlot int, b1, b2 uint64, sig uint16, loc Location) bool {
	// Reconstruct the chain root→end.
	var chain []int32
	for i := endIdx; i != -1; i = nodes[i].parent {
		chain = append(chain, i)
	}
	// chain[len-1] is the root (one of the home buckets); walk from the end
	// bucket back toward the root, moving each victim into the freed slot.
	freeBucket, freeSlot := nodes[endIdx].bucket, emptySlot
	for c := 0; c+1 < len(chain); c++ {
		cur := nodes[chain[c]]
		parent := nodes[chain[c+1]]
		victim := &t.buckets[parent.bucket].slots[cur.slot]
		e := victim.Load()
		if e == 0 {
			// Victim vanished; its slot is now the free slot.
			freeBucket, freeSlot = parent.bucket, cur.slot
			continue
		}
		esig, _ := unpack(e)
		if t.altBucket(parent.bucket, esig) != freeBucket {
			return false // entry changed under us; retry from scratch
		}
		if !t.buckets[freeBucket].slots[freeSlot].CompareAndSwap(0, e) {
			return false
		}
		t.kicks.Inc()
		// A kick is a mutation readers must see: a search that scanned the
		// victim's new bucket before the copy and its old one after the
		// clear would miss a resident key, and only a version change makes
		// it retry. Advance before the clear.
		t.muts.Add(1)
		if t.testKick != nil {
			t.testKick()
		}
		if !victim.CompareAndSwap(e, 0) {
			// Someone deleted/changed the victim concurrently after we copied
			// it; undo the copy to avoid a duplicate and retry.
			t.buckets[freeBucket].slots[freeSlot].CompareAndSwap(e, 0)
			return false
		}
		freeBucket, freeSlot = parent.bucket, cur.slot
	}
	if freeBucket != b1 && freeBucket != b2 {
		return false
	}
	return t.buckets[freeBucket].slots[freeSlot].CompareAndSwap(0, pack(sig, loc))
}

// tryPlace CASes (sig, loc) into any empty slot of bucket b.
func (t *Table) tryPlace(b uint64, sig uint16, loc Location) bool {
	bk := &t.buckets[b]
	for i := range bk.slots {
		if bk.slots[i].Load() == 0 {
			if bk.slots[i].CompareAndSwap(0, pack(sig, loc)) {
				return true
			}
		}
	}
	return false
}

// Delete removes the entry (key → loc). It returns false if no such entry
// exists. Both the signature and the exact location must match, so deleting
// one of two colliding keys never removes the other.
func (t *Table) Delete(key []byte, loc Location) bool { return t.DeleteHash(hash64(key, t.seed), loc) }

// DeleteHash is Delete for callers that already computed the key's hash
// (see Hash), saving a second hash of the key.
func (t *Table) DeleteHash(h uint64, loc Location) bool {
	b1, sig := t.split(h)
	t.deletes.Inc()
	want := pack(sig, loc)
	if t.clearEntry(b1, want) {
		t.muts.Add(1)
		t.entries.Add(-1)
		return true
	}
	b2 := t.altBucket(b1, sig)
	if b2 != b1 && t.clearEntry(b2, want) {
		t.muts.Add(1)
		t.entries.Add(-1)
		return true
	}
	return false
}

// Version returns a counter that advances on every successful Insert or
// Delete and on every displacement kick. A searcher that found no live match
// can compare the version from before its probe: unchanged means the miss is
// genuine; changed means a concurrent overwrite or kick may have hidden the
// key mid-probe and the search should be retried.
func (t *Table) Version() uint64 { return t.muts.Load() }

func (t *Table) clearEntry(b uint64, want uint64) bool {
	bk := &t.buckets[b]
	for i := range bk.slots {
		if bk.slots[i].Load() == want {
			if bk.slots[i].CompareAndSwap(want, 0) {
				return true
			}
		}
	}
	return false
}

// Len returns the number of entries: O(1), read from the count the write
// path keeps. Under concurrent writers it may run ahead of or behind a slot
// scan by the in-flight mutations.
func (t *Table) Len() int { return int(t.entries.Load()) }

// LoadFactor returns Len()/Capacity().
func (t *Table) LoadFactor() float64 {
	return float64(t.Len()) / float64(t.Capacity())
}

// Stats is a snapshot of the table's operation counters.
type Stats struct {
	Searches, Inserts, Deletes uint64
	FailedInserts, Kicks       uint64
	// AvgInsertBuckets is the average number of buckets touched per Insert,
	// the quantity the DIDO cost model tracks at runtime (§IV-B).
	AvgInsertBuckets float64
}

// StatsSnapshot returns current counters.
func (t *Table) StatsSnapshot() Stats {
	ins := t.inserts.Load()
	s := Stats{
		Searches:      t.searches.Load(),
		Inserts:       ins,
		Deletes:       t.deletes.Load(),
		FailedInserts: t.failedInserts.Load(),
		Kicks:         t.kicks.Load(),
	}
	if ins > 0 {
		s.AvgInsertBuckets = float64(t.insertBuckets.Load()) / float64(ins)
	}
	return s
}

// SearchProbesTheoretical returns the paper's analytic expected probe count
// for an n-function cuckoo search: (Σ_{i=1..n} i)/n. With the 2-bucket layout
// used here that is 1.5.
func SearchProbesTheoretical(nHash int) float64 {
	var sum int
	for i := 1; i <= nHash; i++ {
		sum += i
	}
	return float64(sum) / float64(nHash)
}

// Hash exposes the table's hash function for callers that need a consistent
// key hash outside a table — the store hashes a key once and hands the hash
// to its table's *Hash methods.
func Hash(key []byte, seed uint64) uint64 { return hash64(key, seed) }

// hash64 is a fast 64-bit hash (FNV-1a with a 64-bit avalanche finisher). It
// is deterministic across runs for reproducible experiments.
func hash64(key []byte, seed uint64) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := offset ^ seed
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	// splitmix64-style finisher for avalanche.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}
