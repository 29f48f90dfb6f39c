// Package slab implements the memory manager of the key-value store (the MM
// task of the DIDO pipeline): a slab-class allocator over a bounded arena
// with per-class CLOCK eviction, in the style of memcached, Mega-KV and
// MemC3.
//
// Objects live in fixed-size chunks grouped into classes of geometrically
// increasing chunk size. When the arena budget is exhausted and a class has
// no free chunk, the class's CLOCK hand picks a victim — an object not
// referenced since the hand last passed it — and its chunk is reused. This
// is exactly the behaviour behind the paper's observation (§II-C2) that a SET
// under memory pressure generates one Insert *and* one Delete index operation
// (for the new and the evicted object).
//
// Reads are lock-free and safe against concurrent eviction: every chunk
// carries a seqlock version word (odd while dead or being written, even while
// live and stable). Readers copy-then-validate — load the version, copy the
// bytes, reload the version, retry on change — the per-item versioning scheme
// of MICA that Mega-KV [1] sidesteps with an append-only log. The arena is an
// array of atomic 64-bit words (not plain bytes) so a torn read that the
// seqlock will discard is still a well-defined data-race-free load.
//
// Each object header carries an access counter and a sampling timestamp; the
// workload profiler uses them to estimate key-popularity skewness at runtime
// (paper §IV-B) without maintaining global frequency tables. The same header
// word holds the CLOCK reference bit, so a GET hit (Touch) is one lock-free
// CAS on the cache line the read has just loaded. Strict LRU instead needs
// the class lock and a list relink on every hit, writing three randomly
// placed metadata lines; profiled, that was the largest single cost of a GET
// (DESIGN.md §6), and it buys no measurable hit ratio over CLOCK.
package slab

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Handle references an allocated object. Handles are never zero, so they can
// be stored directly as cuckoo-table locations.
type Handle uint64

// NoHandle is the zero Handle, returned when no object is referenced.
const NoHandle Handle = 0

const (
	classShift = 40
	indexMask  = 1<<classShift - 1
)

// MaxClasses bounds the class count so a Handle always fits in 44 bits
// (class<<40 | index, classes 0..15), inside a 48-bit cuckoo location.
const MaxClasses = 16

func makeHandle(class int, index uint64) Handle {
	return Handle(uint64(class)<<classShift|index) + 1
}

func (h Handle) split() (class int, index uint64) {
	v := uint64(h) - 1
	return int(v >> classShift), v & indexMask
}

// Config parameterizes an Allocator.
type Config struct {
	// TotalBytes is the arena budget across all classes. The paper's
	// evaluation platform has 1908 MB of CPU/GPU-shared memory.
	TotalBytes int64
	// SlabBytes is the allocation granularity when a class grows.
	SlabBytes int
	// MinChunk is the smallest chunk size (and the first class).
	MinChunk int
	// MaxChunk is the largest storable object (header+key+value).
	MaxChunk int
	// Growth is the chunk-size ratio between adjacent classes.
	Growth float64
}

// DefaultConfig returns a memcached-like configuration with the given arena
// budget.
func DefaultConfig(totalBytes int64) Config {
	return Config{
		TotalBytes: totalBytes,
		SlabBytes:  1 << 20,
		MinChunk:   64,
		MaxChunk:   16 << 10,
		Growth:     2.0,
	}
}

// Chunk layout, in 64-bit words:
//
//	word 0: seqlock version — odd: dead or being written, even: live+stable
//	word 1: keyLen (16 bits) | valLen<<16 (32 bits)
//	word 2: use — stamp<<32 | access<<1 | ref
//	word 3+: key bytes then value bytes, packed little-endian
//
// The use word sits beside the version and lengths on the chunk's first cache
// line, which every read of the object has just loaded, so Touch costs no
// extra miss. It is the only word written without the class lock (by Touch's
// CAS; the hand clears ref by CAS too). writeObject rewrites it while the
// version is odd, so nothing a Touch wrote survives into the chunk's next
// occupant; a Touch racing that rewrite can at worst count one access, and
// set ref, for the new occupant.
const (
	headerBytes = 24
	headerWords = headerBytes / 8
	lenWord     = 1
	useWord     = 2

	refBit     = 1
	accessMask = 1<<31 - 1
)

func packUse(stamp, access uint32, ref uint64) uint64 {
	return uint64(stamp)<<32 | uint64(access&accessMask)<<1 | ref
}

func unpackUse(u uint64) (stamp, access uint32) {
	return uint32(u >> 32), uint32(u>>1) & accessMask
}

// ErrTooLarge is returned when key+value exceed the largest chunk class.
var ErrTooLarge = errors.New("slab: object exceeds maximum chunk size")

// ErrNoMemory is returned when the arena is exhausted and the class has
// nothing to evict (should only happen with pathological configs).
var ErrNoMemory = errors.New("slab: out of memory and nothing evictable")

// Evicted describes an object that was evicted to satisfy an allocation.
type Evicted struct {
	// Key is a copy of the evicted object's key; the store uses it to remove
	// the stale index entry (the Delete op of paper §II-C2).
	Key []byte
	// Handle is the evicted object's old handle (now reused).
	Handle Handle
}

// class is one chunk size. Under mu the version parity of every chunk is
// stable (only mutators, which hold mu, flip it): even chunks are live, odd
// ones are on the free list.
type class struct {
	mu        sync.Mutex
	chunkSize int      // bytes; always a multiple of 8
	perSlab   int      // chunks per slab
	free      []uint64 // free chunk indices
	hand      uint64   // CLOCK hand: the next chunk index eviction examines
	live      int
	evictions uint64
	evictScan uint64 // chunks the hand examined

	// arena is the snapshot of this class's slabs that lock-free readers
	// navigate. The outer slice is copied on growth and republished
	// atomically; the inner word arrays are allocated once and never move, so
	// a reader holding a stale snapshot still sees every chunk that existed
	// when it resolved its handle.
	arena atomic.Pointer[[][]atomic.Uint64]
}

// Allocator is a slab allocator with per-class CLOCK eviction. Alloc and Free
// take a per-class lock; reads (Object, ReadInto, MatchKey, ReadIfMatch,
// AccessCount) are lock-free seqlock copies, Touch is one lock-free CAS and
// Prefetch is plain loads.
// It is safe for concurrent use.
type Allocator struct {
	cfg     Config
	classes []*class

	budgetMu  sync.Mutex
	allocated int64 // arena bytes handed to classes
}

// NewAllocator returns an allocator for cfg. It panics on nonsensical
// configurations (zero budget, chunk bounds out of order, or a class ladder
// longer than MaxClasses). Chunk sizes are rounded up to multiples of 8 so
// every chunk is an integral number of atomic words.
func NewAllocator(cfg Config) *Allocator {
	if cfg.TotalBytes <= 0 || cfg.MinChunk <= headerBytes ||
		cfg.MaxChunk < cfg.MinChunk || cfg.Growth <= 1 || cfg.SlabBytes < cfg.MaxChunk {
		panic(fmt.Sprintf("slab: invalid config %+v", cfg))
	}
	a := &Allocator{cfg: cfg}
	maxChunk := roundUp8(cfg.MaxChunk)
	for size := roundUp8(cfg.MinChunk); ; {
		c := &class{chunkSize: size, perSlab: cfg.SlabBytes / size}
		a.classes = append(a.classes, c)
		if size >= maxChunk {
			break
		}
		next := roundUp8(int(float64(size) * cfg.Growth))
		if next <= size {
			next = size + 8
		}
		if next > maxChunk {
			next = maxChunk
		}
		size = next
	}
	if len(a.classes) > MaxClasses {
		panic(fmt.Sprintf("slab: config %+v yields %d classes, max %d (Growth too small)",
			cfg, len(a.classes), MaxClasses))
	}
	return a
}

func roundUp8(n int) int { return (n + 7) &^ 7 }

// Classes returns the number of slab classes.
func (a *Allocator) Classes() int { return len(a.classes) }

// ChunkSize returns the chunk size of class c.
func (a *Allocator) ChunkSize(c int) int { return a.classes[c].chunkSize }

// classFor returns the smallest class whose chunks fit total bytes.
func (a *Allocator) classFor(total int) (int, error) {
	for i, c := range a.classes {
		if c.chunkSize >= total {
			return i, nil
		}
	}
	return 0, ErrTooLarge
}

// chunkWords returns chunk idx's word slice (version word included) from the
// given arena snapshot, or nil when idx is beyond the snapshot.
func (c *class) chunkWords(arena [][]atomic.Uint64, idx uint64) []atomic.Uint64 {
	si := idx / uint64(c.perSlab)
	if si >= uint64(len(arena)) {
		return nil
	}
	cw := c.chunkSize / 8
	base := (idx % uint64(c.perSlab)) * uint64(cw)
	return arena[si][base : base+uint64(cw)]
}

// lockedWords resolves chunk idx for a caller holding c.mu.
func (c *class) lockedWords(idx uint64) []atomic.Uint64 {
	p := c.arena.Load()
	if p == nil {
		return nil
	}
	return c.chunkWords(*p, idx)
}

// snapshot resolves h to its class and chunk words without locking. ok is
// false when h is malformed or beyond any chunk this allocator ever created.
func (a *Allocator) snapshot(h Handle) (*class, []atomic.Uint64, bool) {
	if h == NoHandle {
		return nil, nil, false
	}
	ci, idx := h.split()
	if ci >= len(a.classes) {
		return nil, nil, false
	}
	c := a.classes[ci]
	p := a.classes[ci].arena.Load()
	if p == nil {
		return nil, nil, false
	}
	w := c.chunkWords(*p, idx)
	if w == nil {
		return nil, nil, false
	}
	return c, w, true
}

// Alloc allocates a chunk for an object with the given key and value sizes
// and writes the object into it. If the allocation evicted a live object, the
// returned Evicted describes it. now is the profiler's sampling timestamp for
// the new object's header.
func (a *Allocator) Alloc(key, value []byte, now uint32) (Handle, *Evicted, error) {
	total := headerBytes + len(key) + len(value)
	ci, err := a.classFor(total)
	if err != nil {
		return NoHandle, nil, err
	}
	c := a.classes[ci]
	c.mu.Lock()
	defer c.mu.Unlock()

	idx, ev, err := a.obtainChunk(ci, c)
	if err != nil {
		return NoHandle, nil, err
	}
	c.writeObject(idx, key, value, now)
	c.live++
	return makeHandle(ci, idx), ev, nil
}

// obtainChunk returns a free chunk index in class c, growing the class or
// evicting a CLOCK victim as needed. The returned chunk's version word is
// odd (dead), so concurrent readers already reject it. Caller holds c.mu.
func (a *Allocator) obtainChunk(ci int, c *class) (uint64, *Evicted, error) {
	if len(c.free) > 0 || a.tryGrow(c) {
		n := len(c.free)
		idx := c.free[n-1]
		c.free = c.free[:n-1]
		return idx, nil, nil
	}
	if c.live == 0 {
		return 0, nil, ErrNoMemory
	}
	// The hand gives every referenced object a second chance: it clears ref
	// and moves on. A Touch racing the clear may win, which only grants one
	// more pass. After two revolutions the next live chunk is taken, so the
	// walk is bounded however hard the class is being read.
	arena := *c.arena.Load()
	n := uint64(len(arena)) * uint64(c.perSlab)
	for step := uint64(0); ; step++ {
		idx := c.hand
		if c.hand++; c.hand == n {
			c.hand = 0
		}
		c.evictScan++
		w := c.chunkWords(arena, idx)
		if w[0].Load()&1 != 0 {
			continue // dead: a free chunk is never a victim
		}
		if u := w[useWord].Load(); u&refBit != 0 && step < 2*n {
			w[useWord].CompareAndSwap(u, u&^refBit)
			continue
		}
		kl, _, _ := loadLens(w, c.chunkSize)
		ev := &Evicted{Key: appendChunkBytes(make([]byte, 0, kl), w, headerBytes, kl), Handle: makeHandle(ci, idx)}
		w[0].Add(1) // even → odd: readers see the object die before its bytes churn
		c.live--
		c.evictions++
		return idx, ev, nil
	}
}

// tryGrow adds one slab to class c if the arena budget allows. Caller holds
// c.mu; the budget has its own lock so classes can grow concurrently.
func (a *Allocator) tryGrow(c *class) bool {
	a.budgetMu.Lock()
	if a.allocated+int64(a.cfg.SlabBytes) > a.cfg.TotalBytes {
		a.budgetMu.Unlock()
		return false
	}
	a.allocated += int64(a.cfg.SlabBytes)
	a.budgetMu.Unlock()

	chunkWords := c.chunkSize / 8
	slab := make([]atomic.Uint64, c.perSlab*chunkWords)
	// Fresh chunks start dead (odd version) before the slab is published.
	for i := 0; i < c.perSlab; i++ {
		slab[i*chunkWords].Store(1)
	}
	var old [][]atomic.Uint64
	if p := c.arena.Load(); p != nil {
		old = *p
	}
	grown := make([][]atomic.Uint64, len(old)+1)
	copy(grown, old)
	grown[len(old)] = slab
	c.arena.Store(&grown)

	base := uint64(len(old)) * uint64(c.perSlab)
	for i := c.perSlab - 1; i >= 0; i-- {
		c.free = append(c.free, base+uint64(i))
	}
	return true
}

// writeObject fills chunk idx (whose version word must be odd — dead) and
// publishes it live. Caller holds c.mu.
func (c *class) writeObject(idx uint64, key, value []byte, now uint32) {
	w := c.lockedWords(idx)
	seq := w[0].Load() // odd: readers reject the chunk while we write
	w[lenWord].Store(uint64(uint16(len(key))) | uint64(uint32(len(value)))<<16)
	w[useWord].Store(packUse(now, 1, 0))
	storeChunkBytes(w, key, value)
	w[0].Store(seq + 1) // odd → even: object becomes visible
}

// storeChunkBytes packs key then value into the data words (word 3+),
// little-endian and zero-padded, via atomic stores so concurrent seqlock
// readers never race. The key starts on a word; the value starts wherever
// the key ends, so one word may hold the key's tail and the value's head.
func storeChunkBytes(w []atomic.Uint64, key, value []byte) {
	wi := headerWords
	for ; len(key) >= 8; key = key[8:] {
		w[wi].Store(binary.LittleEndian.Uint64(key))
		wi++
	}
	var shared [8]byte
	k := copy(shared[:], key)
	v := copy(shared[k:], value)
	if k+v == 0 {
		return
	}
	w[wi].Store(binary.LittleEndian.Uint64(shared[:]))
	wi++
	for value = value[v:]; len(value) >= 8; value = value[8:] {
		w[wi].Store(binary.LittleEndian.Uint64(value))
		wi++
	}
	if len(value) > 0 {
		var tail [8]byte
		copy(tail[:], value)
		w[wi].Store(binary.LittleEndian.Uint64(tail[:]))
	}
}

// appendChunkBytes appends n bytes starting at byte offset off of the chunk
// to dst, loading whole words atomically.
func appendChunkBytes(dst []byte, w []atomic.Uint64, off, n int) []byte {
	if n == 0 {
		return dst
	}
	end := off + n
	wi := off >> 3
	var tmp [8]byte
	if lo := off & 7; lo != 0 { // a head that starts mid-word
		binary.LittleEndian.PutUint64(tmp[:], w[wi].Load())
		dst = append(dst, tmp[lo:min(8, end-wi<<3)]...)
		wi++
	}
	for ; (wi+1)<<3 <= end; wi++ {
		dst = binary.LittleEndian.AppendUint64(dst, w[wi].Load())
	}
	if rem := end - wi<<3; rem > 0 { // a tail that ends mid-word
		binary.LittleEndian.PutUint64(tmp[:], w[wi].Load())
		dst = append(dst, tmp[:rem]...)
	}
	return dst
}

// chunkBytesEqual reports whether the len(want) bytes at byte offset off of
// the chunk equal want, comparing whole words loaded atomically. off must be
// a multiple of 8: every caller compares a key, which starts on a word.
func chunkBytesEqual(w []atomic.Uint64, off int, want []byte) bool {
	wi := off >> 3
	for ; len(want) >= 8; want = want[8:] {
		if w[wi].Load() != binary.LittleEndian.Uint64(want) {
			return false
		}
		wi++
	}
	if len(want) == 0 {
		return true
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], w[wi].Load())
	return bytes.Equal(tmp[:len(want)], want)
}

// loadLens reads and sanity-checks the length word. A torn read can yield
// garbage lengths; callers only act on them under seqlock validation, but the
// bounds check here keeps even a torn read inside the chunk.
func loadLens(w []atomic.Uint64, chunkSize int) (keyLen, valLen int, ok bool) {
	lw := w[lenWord].Load()
	keyLen = int(lw & 0xffff)
	valLen = int((lw >> 16) & 0xffffffff)
	return keyLen, valLen, headerBytes+keyLen+valLen <= chunkSize
}

// Object returns copies of the key and value stored at h, or ok=false if h is
// not live. It is lock-free: the copy is validated against the chunk's
// seqlock version and retried if a writer intervened.
func (a *Allocator) Object(h Handle) (key, value []byte, ok bool) {
	c, w, ok := a.snapshot(h)
	if !ok {
		return nil, nil, false
	}
	for {
		s1 := w[0].Load()
		if s1&1 != 0 {
			return nil, nil, false
		}
		kl, vl, valid := loadLens(w, c.chunkSize)
		if valid {
			key = appendChunkBytes(key[:0], w, headerBytes, kl)
			value = appendChunkBytes(value[:0], w, headerBytes+kl, vl)
		}
		if w[0].Load() == s1 {
			if !valid {
				return nil, nil, false
			}
			return key, value, true
		}
	}
}

// ReadInto appends the value stored at h to dst, returning the extended
// slice. It is lock-free (seqlock copy-then-validate); ok is false when h is
// not live, in which case dst is returned unchanged. This is the RD task's
// real contract: the returned bytes are a stable copy, not an arena alias.
func (a *Allocator) ReadInto(h Handle, dst []byte) ([]byte, bool) {
	c, w, ok := a.snapshot(h)
	if !ok {
		return dst, false
	}
	mark := len(dst)
	for {
		s1 := w[0].Load()
		if s1&1 != 0 {
			return dst[:mark], false
		}
		kl, vl, valid := loadLens(w, c.chunkSize)
		if valid {
			dst = appendChunkBytes(dst[:mark], w, headerBytes+kl, vl)
		}
		if w[0].Load() == s1 {
			if !valid {
				return dst[:mark], false
			}
			return dst, true
		}
	}
}

// MatchKey reports whether h is live and stores exactly key (the KC task).
// It is lock-free and allocation-free.
func (a *Allocator) MatchKey(h Handle, key []byte) bool {
	c, w, ok := a.snapshot(h)
	if !ok {
		return false
	}
	for {
		s1 := w[0].Load()
		if s1&1 != 0 {
			return false
		}
		kl, _, valid := loadLens(w, c.chunkSize)
		match := valid && kl == len(key) && chunkBytesEqual(w, headerBytes, key)
		if w[0].Load() == s1 {
			return match
		}
	}
}

// ReadIfMatch appends the value at h to dst iff h is live and stores exactly
// key, under a single seqlock validation spanning both the compare and the
// copy (the fused KC+RD fast path of a GET). On a miss dst is returned
// unchanged.
func (a *Allocator) ReadIfMatch(h Handle, key, dst []byte) ([]byte, bool) {
	c, w, ok := a.snapshot(h)
	if !ok {
		return dst, false
	}
	mark := len(dst)
	for {
		s1 := w[0].Load()
		if s1&1 != 0 {
			return dst[:mark], false
		}
		kl, vl, valid := loadLens(w, c.chunkSize)
		match := valid && kl == len(key) && chunkBytesEqual(w, headerBytes, key)
		if match {
			dst = appendChunkBytes(dst[:mark], w, headerBytes+kl, vl)
		}
		if w[0].Load() == s1 {
			if !match {
				return dst[:mark], false
			}
			return dst, true
		}
	}
}

// prefetchLines caps how many of a chunk's cache lines Prefetch loads: the
// header, key and value of a small object, not the whole of a large chunk.
const prefetchLines = 4

// Prefetch loads one word from each 64-byte line of h's chunk, up to
// prefetchLines lines, and returns their sum. It resolves h through the same
// snapshot ReadIfMatch uses, so a handle that is NoHandle, malformed, beyond
// the arena or freed is safe (it returns 0, or loads a dead chunk's words).
// It validates nothing and branches on none of the words it loads: a batch
// that prefetches every key's chunk before verifying any keeps all their
// misses in flight at once. The caller discards the sum (it only gives the
// loads a use).
func (a *Allocator) Prefetch(h Handle) uint64 {
	_, w, ok := a.snapshot(h)
	if !ok {
		return 0
	}
	n := min(len(w), prefetchLines*8)
	var sum uint64
	for i := 0; i < n; i += 8 {
		sum += w[i].Load()
	}
	// The last word covers a tail line when the chunk does not start on one.
	return sum + w[n-1].Load()
}

// Touch marks h as accessed at sampling timestamp now: it sets the object's
// CLOCK reference bit and updates the access counter per the paper's sampling
// scheme — reset to 1 when a new sampling interval begins, else incremented.
// It is lock-free: one CAS on the use word, not retried, since losing a race
// to another Touch or to the hand costs at most one sample count and one
// reference, never a corrupt header.
func (a *Allocator) Touch(h Handle, now uint32) {
	_, w, ok := a.snapshot(h)
	if !ok || w[0].Load()&1 != 0 {
		return
	}
	u := w[useWord].Load()
	access := uint32(1)
	if stamp, n := unpackUse(u); stamp == now && n < accessMask {
		access = n + 1
	}
	w[useWord].CompareAndSwap(u, packUse(now, access, refBit))
}

// AccessCount returns the access counter and sampling timestamp of h, or
// ok=false if h is not live. It is a lock-free seqlock read.
func (a *Allocator) AccessCount(h Handle) (count, stamp uint32, ok bool) {
	_, w, ok := a.snapshot(h)
	if !ok {
		return 0, 0, false
	}
	return loadUse(w)
}

// loadUse reads the use word of a live chunk under seqlock validation.
func loadUse(w []atomic.Uint64) (count, stamp uint32, ok bool) {
	for {
		s1 := w[0].Load()
		if s1&1 != 0 {
			return 0, 0, false
		}
		stamp, count = unpackUse(w[useWord].Load())
		if w[0].Load() == s1 {
			return count, stamp, true
		}
	}
}

// Free releases h back to its class's free list. Freeing a dead handle is a
// no-op (the object may have been concurrently evicted).
func (a *Allocator) Free(h Handle) { a.free(h, nil, false) }

// FreeIfMatch is Free for a handle that was read from an index a while ago:
// it releases h only if the chunk still stores key. An eviction may have
// recycled the chunk for another object since the caller looked h up, and a
// plain Free would kill that live object behind its owner's back.
func (a *Allocator) FreeIfMatch(h Handle, key []byte) { a.free(h, key, true) }

func (a *Allocator) free(h Handle, key []byte, match bool) {
	if h == NoHandle {
		return
	}
	ci, idx := h.split()
	if ci >= len(a.classes) {
		return
	}
	c := a.classes[ci]
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.lockedWords(idx)
	if w == nil || w[0].Load()&1 != 0 {
		return
	}
	if match {
		if kl, _, _ := loadLens(w, c.chunkSize); kl != len(key) || !chunkBytesEqual(w, headerBytes, key) {
			return
		}
	}
	w[0].Add(1) // even → odd: kill in-flight readers
	c.live--
	c.free = append(c.free, idx)
}

// CollectAccessCounts returns the access counters of up to limit live objects
// whose sampling timestamp equals stamp — i.e. the objects touched during the
// current sampling interval. The workload profiler feeds these frequencies to
// the skewness estimator (paper §IV-B). limit <= 0 means no limit. The walk
// is lock-free, like Range.
func (a *Allocator) CollectAccessCounts(stamp uint32, limit int) []uint32 {
	var out []uint32
	for _, c := range a.classes {
		p := c.arena.Load()
		if p == nil {
			continue
		}
		arena := *p
		nChunks := uint64(len(arena)) * uint64(c.perSlab)
		for idx := uint64(0); idx < nChunks; idx++ {
			if n, s, ok := loadUse(c.chunkWords(arena, idx)); ok && s == stamp {
				out = append(out, n)
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// Stats summarizes allocator state.
type Stats struct {
	LiveObjects    int
	ArenaBytes     int64
	AllocatedBytes int64
	Evictions      uint64
	// EvictScan counts chunks the CLOCK hand examined; EvictScan/Evictions
	// is the hand's attempts per useful outcome.
	EvictScan uint64
}

// Range iterates every live object in the arena, calling fn(key, value) for
// each; it stops early and returns false if fn returns false. The walk is
// lock-free: it snapshots each class's arena pointer and copies chunks under
// the per-chunk seqlock (copy-then-validate, like Object), so it runs
// concurrently with writers without blocking them. The iteration is a
// point-in-time-ish scan, not a consistent cut: an object written while the
// walk passes its chunk may or may not be observed — the snapshotter that
// uses Range pairs it with WAL replay, whose absolute SET/DEL records make
// the combination converge regardless. The key/value slices are reused
// between calls; fn must not retain them.
func (a *Allocator) Range(fn func(key, value []byte) bool) bool {
	return a.rangeObjects(true, fn)
}

// RangeKeys is Range without the values: it calls fn(key) with each live
// object's key, copied under the chunk's seqlock, and never reads a value
// byte. It is how the store builds its ordered index. The key slice is reused
// between calls; fn must not retain it.
func (a *Allocator) RangeKeys(fn func(key []byte) bool) bool {
	return a.rangeObjects(false, func(key, _ []byte) bool { return fn(key) })
}

// rangeObjects is Range, copying each value only when values is set (fn
// gets an empty value otherwise).
func (a *Allocator) rangeObjects(values bool, fn func(key, value []byte) bool) bool {
	var kbuf, vbuf []byte
	for _, c := range a.classes {
		p := c.arena.Load()
		if p == nil {
			continue
		}
		arena := *p
		nChunks := uint64(len(arena)) * uint64(c.perSlab)
		for idx := uint64(0); idx < nChunks; idx++ {
			w := c.chunkWords(arena, idx)
			for {
				s1 := w[0].Load()
				if s1&1 != 0 {
					break // dead or mid-write; skip
				}
				kl, vl, valid := loadLens(w, c.chunkSize)
				if valid {
					kbuf = appendChunkBytes(kbuf[:0], w, headerBytes, kl)
					if values {
						vbuf = appendChunkBytes(vbuf[:0], w, headerBytes+kl, vl)
					}
				}
				if w[0].Load() == s1 {
					if valid && !fn(kbuf, vbuf) {
						return false
					}
					break
				}
			}
		}
	}
	return true
}

// StatsSnapshot returns current allocator statistics.
func (a *Allocator) StatsSnapshot() Stats {
	s := Stats{ArenaBytes: a.cfg.TotalBytes}
	a.budgetMu.Lock()
	s.AllocatedBytes = a.allocated
	a.budgetMu.Unlock()
	for _, c := range a.classes {
		c.mu.Lock()
		s.LiveObjects += c.live
		s.Evictions += c.evictions
		s.EvictScan += c.evictScan
		c.mu.Unlock()
	}
	return s
}
