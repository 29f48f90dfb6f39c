// Package ordered is the store's ordered index: a B-tree mapping binary keys
// to uint64 payloads that is mutated in place under a writer mutex and copied
// lazily, only where a snapshot might still be looking.
//
// Every node carries the epoch it was created in, and the writer may change
// only nodes of the current epoch. Snapshot hands out the current root and (if
// the epoch owns any node) starts a new one, so from then on the writer copies
// a node the first time it touches one, and owns the copy until the next
// snapshot. Snapshot readers therefore never see a written node: they iterate
// without locks or retries, never block a writer, and an old version is
// reclaimed by the collector once the last Snapshot holding it is dropped. A
// tree nobody snapshots never copies a node. Load swaps in a whole new tree,
// built bottom-up from sorted entries, or an empty one.
//
// What a snapshot freezes is the KEY SEQUENCE (and Len and Version). A payload
// is a hint: overwriting a resident key is one atomic store into the existing
// entry, shared nodes included, so a snapshot may read a payload newer than
// itself — or, once the writer has copied that node, an outdated one. The
// store keeps a slab location there and verifies it on every use (see
// internal/store/scan.go), which is why it needs no more than that.
package ordered

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	maxItems = 31           // per node: fanout 32
	splitAt  = maxItems / 2 // a full node splits into splitAt | median | splitAt
	// minItems is the fewest items a node other than the root holds: remove
	// rebalances a child only below splitAt. A merge therefore yields at most
	// 2*minItems+1 = maxItems-2 items, two inserts short of a split, and each
	// half of a split can lose an item before it is rebalanced. A minimum of
	// splitAt would let one delete merge two fresh halves back into a full
	// node for the next insert to split again, over and over at a one-item
	// root under delete+insert churn.
	minItems = splitAt - 1
	// maxDepth bounds an iterator's stack: a tree of minimum fanout
	// minItems+1 = 15 and this depth holds 15^12 ≈ 2^47 keys.
	maxDepth = 12
)

// item is one entry in transit between nodes.
type item struct {
	key      []byte
	pfx, val uint64
}

// node is one B-tree node; items live in interior nodes as well as leaves, as
// three parallel arrays. vals comes first so that it is 64-bit aligned for
// atomic access: snapshot readers load a payload while an overwrite may be
// storing it. pfx holds each key's first eight bytes so that a search reads
// key bytes — one cache miss each, they are separate allocations — only to
// break a tie.
type node struct {
	vals  [maxItems]uint64
	pfx   [maxItems]uint64
	keys  [maxItems][]byte // key bytes are immutable and shared between copies
	kids  *[maxItems + 1]*node
	n     int    // items in use; an interior node has n+1 kids
	epoch uint64 // writable iff equal to Tree.epoch
}

// prefix returns key's first eight bytes, zero-padded, as a big-endian
// integer: prefixes order the way their keys do, except that equal prefixes
// decide nothing.
func prefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// search returns the index of key (whose prefix is kp) in n, or the index of
// the child, and the item slot, it would descend into.
func (n *node) search(key []byte, kp uint64) (int, bool) {
	lo, hi := 0, n.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		c := cmp.Compare(kp, n.pfx[m])
		if c == 0 {
			c = bytes.Compare(key, n.keys[m])
		}
		switch {
		case c > 0:
			lo = m + 1
		case c < 0:
			hi = m
		default:
			return m, true
		}
	}
	return lo, false
}

// find returns the node and slot holding key beneath root, or nil.
func find(root *node, key []byte) (*node, int) {
	kp := prefix(key)
	for n := root; n != nil; {
		i, ok := n.search(key, kp)
		if ok {
			return n, i
		}
		if n.kids == nil {
			break
		}
		n = n.kids[i]
	}
	return nil, 0
}

func (n *node) item(i int) item { return item{n.keys[i], n.pfx[i], n.vals[i]} }

func (n *node) setItem(i int, it item) {
	n.keys[i], n.pfx[i], n.vals[i] = it.key, it.pfx, it.val
}

func (n *node) insertItem(i int, it item) {
	copy(n.keys[i+1:n.n+1], n.keys[i:n.n])
	copy(n.pfx[i+1:n.n+1], n.pfx[i:n.n])
	copy(n.vals[i+1:n.n+1], n.vals[i:n.n])
	n.setItem(i, it)
	n.n++
}

func (n *node) removeItem(i int) item {
	it := n.item(i)
	copy(n.keys[i:], n.keys[i+1:n.n])
	copy(n.pfx[i:], n.pfx[i+1:n.n])
	copy(n.vals[i:], n.vals[i+1:n.n])
	n.n--
	n.keys[n.n] = nil
	return it
}

// appendItems copies src's items (and children) in behind n's own.
func (n *node) appendItems(src *node, from int) {
	copy(n.keys[n.n:], src.keys[from:src.n])
	copy(n.pfx[n.n:], src.pfx[from:src.n])
	copy(n.vals[n.n:], src.vals[from:src.n])
	if src.kids != nil {
		copy(n.kids[n.n:], src.kids[from:src.n+1])
	}
	n.n += src.n - from
}

// insertKid and removeKid fix up an interior node's children AFTER the
// matching insertItem/removeItem changed n.n.
func (n *node) insertKid(j int, c *node) {
	copy(n.kids[j+1:n.n+1], n.kids[j:n.n])
	n.kids[j] = c
}

func (n *node) removeKid(j int) {
	copy(n.kids[j:], n.kids[j+1:n.n+2])
	n.kids[n.n+1] = nil
}

// Tree is the concurrent ordered index. The zero value is an empty tree.
type Tree struct {
	mu    sync.Mutex // serializes writers and Snapshot
	root  *node
	epoch uint64
	len   atomic.Int64
	ver   atomic.Uint64

	splits, merges atomic.Uint64
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the current number of keys.
func (t *Tree) Len() int { return int(t.len.Load()) }

// Version returns the number of key-set changes (inserts and deletes) so
// far. Overwriting a resident key's payload is not a new version.
func (t *Tree) Version() uint64 { return t.ver.Load() }

// Churn returns the number of node splits (the root's included) and node
// merges so far: the tree's structural changes, each a node allocated or
// dropped.
func (t *Tree) Churn() (splits, merges uint64) { return t.splits.Load(), t.merges.Load() }

// Get returns the payload currently stored under key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return get(t.root, key)
}

func get(root *node, key []byte) (uint64, bool) {
	n, i := find(root, key)
	if n == nil {
		return 0, false
	}
	return atomic.LoadUint64(&n.vals[i]), true
}

// Set inserts or overwrites key's payload. The key bytes are copied on
// first insert; the caller may reuse its buffer.
func (t *Tree) Set(key []byte, val uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(key, val)
}

// Delete removes key; it reports whether the key was present.
func (t *Tree) Delete(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(key)
}

// Update reconciles key's binding against an authoritative source: resolve is
// called UNDER the writer lock and must return the key's current payload
// (ok=true) or report the key gone (ok=false); the tree then upserts or
// removes accordingly. Because resolve reads its source inside the lock,
// concurrent Updates of one key serialize and the last one to run wins with
// the freshest source state — callers that invoke Update after every source
// mutation get eventual exact agreement, with no lost-update window that
// separate read-then-Set/Delete calls would leave. resolve must not call back
// into the tree.
func (t *Tree) Update(key []byte, resolve func() (uint64, bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if val, ok := resolve(); ok {
		t.setLocked(key, val)
	} else {
		t.deleteLocked(key)
	}
}

// Snapshot returns a view of the tree's current key sequence. It holds the
// writer lock for O(1), and while no key has been inserted or deleted since
// the previous call it costs the writer nothing afterwards either: the nodes
// are all shared already. Holding a Snapshot pins the nodes of its version
// (no value bytes) until it is dropped.
func (t *Tree) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Every key-set change makes the root writable first, so a root of an
	// older epoch means no node of the current one exists.
	if t.root != nil && t.root.epoch == t.epoch {
		t.epoch++ // every existing node is now shared: copy before writing
	}
	return Snapshot{root: t.root, len: t.Len(), ver: t.Version()}
}

// Load replaces the tree's contents with the entries fill passes to add. fill
// runs under the writer lock, so no Update interleaves with it: a fill that
// reads the source the tree mirrors leaves the tree exactly what it read. add
// copies the key; entries may come in any order, and of equal keys one is
// kept, so a key added twice must carry one payload. The tree is then built
// bottom-up from the sorted entries, every node but the root at least half
// full. hint is the expected entry count (0 if unknown): the entry array is
// sized for it once instead of growing by doubling. A nil fill empties the
// tree in O(1). Snapshots taken before Load keep their version.
func (t *Tree) Load(hint int, fill func(add func(key []byte, val uint64))) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var items []item
	if fill != nil {
		items = make([]item, 0, max(hint, 0))
		var block []byte // keys are copied into shared blocks, not one allocation each
		fill(func(key []byte, val uint64) {
			if len(key) > cap(block)-len(block) {
				block = make([]byte, 0, max(keyBlock, len(key)))
			}
			block = append(block, key...)
			k := block[len(block)-len(key) : len(block) : len(block)]
			items = append(items, item{k, prefix(k), val})
		})
		items = slices.CompactFunc(sortItems(items), func(a, b item) bool {
			return a.pfx == b.pfx && bytes.Equal(a.key, b.key)
		})
	}
	t.len.Store(int64(len(items)))
	t.ver.Add(1)
	t.root = nil
	if len(items) > 0 {
		h := 1
		for capacity(h) < len(items) {
			h++
		}
		t.root = t.build(items, h)
	}
}

// compareItems orders items by key.
func compareItems(x, y item) int {
	if c := cmp.Compare(x.pfx, y.pfx); c != 0 {
		return c
	}
	return bytes.Compare(x.key, y.key)
}

// sortItems sorts items by key, in place or into a new slice, which it
// returns. Past a few thousand items a counting pass first spreads them over
// 64 Ki buckets by the 16 prefix bits below the ones they all share, so the
// comparison sort only orders each bucket's few: on a million keys, about a
// third of the time of sorting them whole.
func sortItems(items []item) []item {
	if len(items) < 4<<10 {
		slices.SortFunc(items, compareItems)
		return items
	}
	lo, hi := items[0].pfx, items[0].pfx
	for _, it := range items {
		lo, hi = min(lo, it.pfx), max(hi, it.pfx)
	}
	shift := max(0, 64-bits.LeadingZeros64(lo^hi)-16)
	next := make([]int, 1<<16+1) // bucket b's items go to out[next[b]:...]
	for _, it := range items {
		next[it.pfx>>shift&0xffff+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	out := make([]item, len(items))
	for _, it := range items {
		b := it.pfx >> shift & 0xffff
		out[next[b]] = it
		next[b]++
	}
	start := 0
	for b := 0; b < 1<<16; b++ { // next[b] is now where bucket b ends
		slices.SortFunc(out[start:next[b]], compareItems)
		start = next[b]
	}
	return out
}

// keyBlock is the size of the blocks Load copies keys into: an allocation per
// key made a million-key Load about a quarter slower. A block lives as long
// as any of its keys does, so it is small next to the index.
const keyBlock = 64 << 10

// capacity returns the most items a tree of height h holds.
func capacity(h int) int {
	c := 1
	for ; h > 0; h-- {
		c *= maxItems + 1
	}
	return c - 1
}

// build returns a new subtree of height h over items, at most capacity(h) of
// them. An interior node gets the fewest children the items fit in, and they
// share the items evenly. With the fewest, one child fewer could not hold the
// items, so each child's share is at least half of what it can hold: every
// node but the root is at least half full, which is more than minItems.
func (t *Tree) build(items []item, h int) *node {
	n := &node{epoch: t.epoch}
	if h == 1 {
		for i, it := range items {
			n.setItem(i, it)
		}
		n.n = len(items)
		return n
	}
	sub := capacity(h - 1)
	kids := (len(items) + sub + 1) / (sub + 1)
	per, extra := (len(items)-kids+1)/kids, (len(items)-kids+1)%kids
	n.n = kids - 1
	n.kids = new([maxItems + 1]*node)
	for j := 0; j < kids; j++ {
		c := per
		if j < extra {
			c++
		}
		n.kids[j] = t.build(items[:c], h-1)
		items = items[c:]
		if j < kids-1 {
			n.setItem(j, items[0])
			items = items[1:]
		}
	}
	return n
}

// ---- writer internals; the caller holds t.mu ----

// writable returns n if the current epoch owns it, else a copy that it does.
func (t *Tree) writable(n *node) *node {
	if n.epoch == t.epoch {
		return n
	}
	c := *n
	c.epoch = t.epoch
	if n.kids != nil {
		kids := *n.kids
		c.kids = &kids
	}
	return &c
}

// own makes p's i-th child writable; p must be.
func (t *Tree) own(p *node, i int) *node {
	c := t.writable(p.kids[i])
	p.kids[i] = c
	return c
}

// changed marks a key-set change about to happen: the current epoch is about
// to own nodes, the root first.
func (t *Tree) changed(delta int64) {
	t.len.Add(delta)
	t.ver.Add(1)
	if t.root == nil {
		t.root = &node{epoch: t.epoch}
	} else {
		t.root = t.writable(t.root)
	}
}

func (t *Tree) setLocked(key []byte, val uint64) {
	if n, i := find(t.root, key); n != nil {
		atomic.StoreUint64(&n.vals[i], val)
		return
	}
	t.changed(+1)
	if t.root.n == maxItems {
		t.root = &node{epoch: t.epoch, kids: &[maxItems + 1]*node{t.root}}
		t.splitChild(t.root, 0)
	}
	// Descend splitting every full node on the way, so the leaf has room.
	it := item{bytes.Clone(key), prefix(key), val}
	n := t.root
	for {
		i, _ := n.search(key, it.pfx)
		if n.kids == nil {
			n.insertItem(i, it)
			return
		}
		c := t.own(n, i)
		if c.n == maxItems {
			t.splitChild(n, i)
			continue // the median moved up into n: look again
		}
		n = c
	}
}

// splitChild splits p's full, writable i-th child around its median item,
// which moves up into p.
func (t *Tree) splitChild(p *node, i int) {
	c := p.kids[i]
	r := &node{epoch: t.epoch}
	if c.kids != nil {
		r.kids = new([maxItems + 1]*node)
	}
	r.appendItems(c, splitAt+1)
	p.insertItem(i, c.item(splitAt))
	p.insertKid(i+1, r)
	clear(c.keys[splitAt:])
	if c.kids != nil {
		clear(c.kids[splitAt+1:])
	}
	c.n = splitAt
	t.splits.Add(1)
}

func (t *Tree) deleteLocked(key []byte) bool {
	if n, _ := find(t.root, key); n == nil {
		return false
	}
	t.changed(-1)
	t.remove(t.root, key, prefix(key), false)
	if t.root.n == 0 {
		if t.root.kids != nil {
			t.root = t.root.kids[0]
		} else {
			t.root = nil
		}
	}
	return true
}

// remove deletes key — or, with max set, the largest item — from the subtree
// of writable node n, which holds it, and returns the removed item. Every
// node it descends into is first grown above minItems, so a removal never
// has to propagate back up.
func (t *Tree) remove(n *node, key []byte, kp uint64, max bool) item {
	for {
		i, found := n.n, false
		if !max {
			i, found = n.search(key, kp)
		}
		if n.kids == nil {
			if max {
				i--
			}
			return n.removeItem(i)
		}
		if n.kids[i].n <= minItems {
			t.grow(n, i) // moves items around: look again
			continue
		}
		c := t.own(n, i)
		if found { // replace an interior item by its predecessor
			it := n.item(i)
			n.setItem(i, t.remove(c, nil, 0, true))
			return it
		}
		n = c
	}
}

// grow gives p's i-th child an item more than minItems: one rotated through
// p from a sibling that can spare it, else by merging it with a sibling.
func (t *Tree) grow(p *node, i int) {
	switch {
	case i > 0 && p.kids[i-1].n > minItems:
		c, l := t.own(p, i), t.own(p, i-1)
		c.insertItem(0, p.item(i-1))
		p.setItem(i-1, l.removeItem(l.n-1))
		if c.kids != nil {
			c.insertKid(0, l.kids[l.n+1])
			l.removeKid(l.n + 1)
		}
	case i < p.n && p.kids[i+1].n > minItems:
		c, r := t.own(p, i), t.own(p, i+1)
		c.insertItem(c.n, p.item(i))
		p.setItem(i, r.removeItem(0))
		if c.kids != nil {
			c.insertKid(c.n, r.kids[0])
			r.removeKid(0)
		}
	default:
		if i == p.n {
			i--
		}
		// Child i absorbs separator i and child i+1, which is only read.
		l, r := t.own(p, i), p.kids[i+1]
		l.insertItem(l.n, p.removeItem(i))
		p.removeKid(i + 1)
		l.appendItems(r, 0)
		t.merges.Add(1)
	}
}

// ---- snapshots ----

// Snapshot is one frozen key sequence of a tree (see the package comment for
// what is frozen and what is not). The zero value is an empty tree.
type Snapshot struct {
	root *node
	len  int
	ver  uint64
}

// Len returns the snapshot's key count.
func (s Snapshot) Len() int { return s.len }

// Version returns the tree's Version when the snapshot was taken.
func (s Snapshot) Version() uint64 { return s.ver }

// Get returns the payload stored under key, if the snapshot holds key.
func (s Snapshot) Get(key []byte) (uint64, bool) { return get(s.root, key) }

// Ascend calls fn for every key in [start, end) in ascending order, stopping
// early when fn returns false. A nil/empty start means the smallest key; a
// nil/empty end means no upper bound. The key slice passed to fn aliases the
// tree's own copy and must not be mutated.
func (s Snapshot) Ascend(start, end []byte, fn func(key []byte, val uint64) bool) {
	it := s.Iter(start, end)
	for k, v, ok := it.Next(); ok && fn(k, v); k, v, ok = it.Next() {
	}
}

// Iter is an in-order iterator over one snapshot, used by the store's range
// scan. It allocates nothing and is not safe for concurrent use.
type Iter struct {
	// stack[:depth] is the path to the next item: stack[depth-1] yields its
	// item i next, every frame above it resumes at its item i once the
	// subtree below is exhausted.
	stack [maxDepth]struct {
		n *node
		i int
	}
	depth int
	end   []byte
	sink  uint64 // takes IterBatch's touch loads
}

// Iter returns an iterator positioned at the smallest key ≥ start,
// yielding keys strictly below end (empty end = unbounded).
func (s Snapshot) Iter(start, end []byte) Iter {
	it := Iter{}
	if len(end) > 0 {
		it.end = end
	}
	sp := prefix(start)
	for n := s.root; n != nil; {
		i, found := n.search(start, sp)
		it.push(n, i)
		if found || n.kids == nil {
			break
		}
		n = n.kids[i]
	}
	return it
}

// descending marks an IterBatch frame whose node is not searched yet.
const descending = -1

// IterBatch positions its[i] exactly as s.Iter(starts[i], ends[i]) would, for
// every i; starts and ends are as long as its. It descends for all the ranges
// together, one tree level at a time. A descent is a chain of dependent
// misses, one node per level, and a search branches on every prefix it
// loads, so searching the ranges one after another pays one memory round
// trip per range and level. At each level IterBatch therefore first loads
// the lines every range's search will read (see touch) in a loop that
// branches on none of them, so the whole batch's misses are in flight at
// once, and then searches every range's node from cache. It allocates
// nothing: each iterator's own stack holds its descent.
func (s Snapshot) IterBatch(its []Iter, starts, ends [][]byte) {
	for i := range its {
		it := &its[i]
		*it = Iter{}
		if len(ends[i]) > 0 {
			it.end = ends[i]
		}
		if s.root != nil {
			it.push(s.root, descending)
		}
	}
	for more := s.root != nil; more; {
		for i := range its {
			it := &its[i]
			if f := it.stack[it.depth-1]; f.i == descending {
				it.sink += f.n.touch()
			}
		}
		more = false
		for i := range its {
			it := &its[i]
			f := &it.stack[it.depth-1]
			if f.i != descending {
				continue
			}
			j, found := f.n.search(starts[i], prefix(starts[i]))
			f.i = j
			if !found && f.n.kids != nil {
				it.push(f.n.kids[j], descending)
				more = true
			}
		}
	}
}

// touch loads one word of every cache line search reads from n — its header
// (n.n and kids) and its prefix array — and, for an interior node, of its
// child array, from which the descent takes the next node. It returns a sum
// whose only purpose is to give the loads a use. Its one branch, on kids,
// goes the same way for every node of a level: all leaves are equally deep.
func (n *node) touch() uint64 {
	s := uint64(n.n) + n.pfx[0] + n.pfx[8] + n.pfx[16] + n.pfx[24] + n.pfx[maxItems-1]
	if k := n.kids; k != nil {
		// Pointers cannot be summed; comparing them is a use. No compare
		// ever matches (children are distinct and the unused slots nil), so
		// the branch never mispredicts.
		if k[8] == k[0] || k[16] == k[0] || k[24] == k[0] {
			s++
		}
	}
	return s
}

func (it *Iter) push(n *node, i int) {
	it.stack[it.depth].n, it.stack[it.depth].i = n, i
	it.depth++
}

// Next returns the next key and payload, or ok=false when the range is
// exhausted. The key slice aliases the tree's own copy and must not be
// mutated.
func (it *Iter) Next() (key []byte, val uint64, ok bool) {
	for it.depth > 0 {
		f := &it.stack[it.depth-1]
		n, i := f.n, f.i
		if i == n.n {
			it.depth--
			continue
		}
		if it.end != nil && bytes.Compare(n.keys[i], it.end) >= 0 {
			it.depth = 0
			break
		}
		f.i++
		if n.kids != nil { // next up: the smallest key right of item i
			c := n.kids[i+1]
			for ; c.kids != nil; c = c.kids[0] {
				it.push(c, 0)
			}
			it.push(c, 0)
		}
		return n.keys[i], atomic.LoadUint64(&n.vals[i]), true
	}
	return nil, 0, false
}
