package ordered

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var seedFlag = flag.Int64("ordered.seed", 0, "seed for the randomized tree tests (0 = from the clock, or 1 for TestEvictChurnKeepsRoot)")

// newRand returns the randomized tests' source and logs its seed, which a
// failing run prints; -ordered.seed feeds it back.
func newRand(t *testing.T) *rand.Rand {
	seed := *seedFlag
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("reproduce with -ordered.seed=%d", seed)
	return rand.New(rand.NewSource(seed))
}

// checkInvariants verifies the B-tree shape beneath root: keys strictly
// ascending in order, every node but the root between minItems and maxItems
// full, all leaves at one depth, no stale slots, and wantLen items in all.
func checkInvariants(t *testing.T, root *node, wantLen int) {
	t.Helper()
	var prev []byte
	items := 0
	var walk func(n *node, isRoot bool) int
	walk = func(n *node, isRoot bool) int {
		if n.n > maxItems || n.n < 1 || (!isRoot && n.n < minItems) {
			t.Fatalf("node fill %d outside bounds (root=%v)", n.n, isRoot)
		}
		for i, k := range n.keys[:n.n] {
			if n.pfx[i] != prefix(k) {
				t.Fatalf("key %q carries prefix %#x", k, n.pfx[i])
			}
		}
		for _, k := range n.keys[n.n:] {
			if k != nil {
				t.Fatalf("stale key %q beyond n=%d", k, n.n)
			}
		}
		depth := 0
		for i := 0; i <= n.n; i++ {
			if n.kids != nil {
				if d := walk(n.kids[i], false); i > 0 && d != depth {
					t.Fatalf("leaf depth differs under one node: %d vs %d", d, depth)
				} else {
					depth = d
				}
			}
			if i < n.n {
				if prev != nil && bytes.Compare(prev, n.keys[i]) >= 0 {
					t.Fatalf("order violated: %q then %q", prev, n.keys[i])
				}
				prev = n.keys[i]
				items++
			}
		}
		if n.kids != nil {
			for _, c := range n.kids[n.n+1:] {
				if c != nil {
					t.Fatalf("stale child beyond n=%d", n.n)
				}
			}
		}
		return depth + 1
	}
	if root != nil {
		walk(root, true)
	}
	if items != wantLen {
		t.Fatalf("tree holds %d items, want %d", items, wantLen)
	}
}

func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	checkInvariants(t, tr.root, tr.Len())
}

func collect(s Snapshot, start, end []byte) (keys []string, vals []uint64) {
	s.Ascend(start, end, func(k []byte, v uint64) bool {
		keys = append(keys, string(k))
		vals = append(vals, v)
		return true
	})
	return
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestTreeBasic(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Version() != 0 {
		t.Fatalf("fresh tree: len=%d ver=%d", tr.Len(), tr.Version())
	}
	tr.Set([]byte("b"), 2)
	tr.Set([]byte("a"), 1)
	tr.Set([]byte("c"), 3)
	if v, ok := tr.Get([]byte("b")); !ok || v != 2 || tr.Len() != 3 {
		t.Fatalf("Get(b)=%d,%v len=%d", v, ok, tr.Len())
	}
	ver := tr.Version()
	tr.Set([]byte("b"), 22) // overwrite: same key set, same version
	if v, _ := tr.Get([]byte("b")); v != 22 || tr.Len() != 3 || tr.Version() != ver {
		t.Fatalf("after overwrite: b=%d len=%d ver=%d (was %d)", v, tr.Len(), tr.Version(), ver)
	}
	if !tr.Delete([]byte("a")) || tr.Delete([]byte("zzz")) {
		t.Fatalf("Delete: present key reported absent or absent key present")
	}
	if _, ok := tr.Get([]byte("a")); ok || tr.Version() != ver+1 {
		t.Fatalf("deleted key still present, or version %d != %d", tr.Version(), ver+1)
	}
	keys, vals := collect(tr.Snapshot(), nil, nil)
	if fmt.Sprint(keys) != "[b c]" || fmt.Sprint(vals) != "[22 3]" {
		t.Fatalf("iteration got %v / %v", keys, vals)
	}
	tr.Update([]byte("c"), func() (uint64, bool) { return 0, false })
	tr.Update([]byte("d"), func() (uint64, bool) { return 4, true })
	if keys, _ := collect(tr.Snapshot(), nil, nil); fmt.Sprint(keys) != "[b d]" {
		t.Fatalf("after Update: %v", keys)
	}
	tr.Delete([]byte("b"))
	tr.Delete([]byte("d"))
	if tr.Len() != 0 || tr.root != nil {
		t.Fatalf("emptied tree: len=%d root=%v", tr.Len(), tr.root)
	}
}

// TestPrefixTies orders keys whose inlined eight-byte prefixes say nothing or
// too little: shorter than eight bytes, zero bytes where the padding would be,
// and equal up to the eighth byte.
func TestPrefixTies(t *testing.T) {
	want := []string{"", "\x00", "\x00\x00", "\x00a", "a", "a\x00", "a\x00\x00", "a\x00b", "ab",
		"abcdefg", "abcdefg\x00", "abcdefgh", "abcdefgh\x00", "abcdefgh\x00z", "abcdefgha", "abcdefghb", "abcdefgi"}
	if !sort.StringsAreSorted(want) {
		t.Fatal("the test's own list is out of order")
	}
	tr := New()
	for _, i := range rand.New(rand.NewSource(5)).Perm(len(want)) {
		tr.Set([]byte(want[i]), uint64(i))
	}
	if keys, _ := collect(tr.Snapshot(), nil, nil); fmt.Sprintf("%q", keys) != fmt.Sprintf("%q", want) {
		t.Fatalf("order: got %q want %q", keys, want)
	}
	for i, k := range want {
		if v, ok := tr.Get([]byte(k)); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v want %d", k, v, ok, i)
		}
		if keys, _ := collect(tr.Snapshot(), []byte(k), nil); len(keys) != len(want)-i && k != "" {
			t.Fatalf("scan from %q returned %d keys, want %d", k, len(keys), len(want)-i)
		}
	}
}

// TestTreeRandomOpsVsOracle runs random sets and deletes — with snapshots
// taken along the way, so copied and owned nodes mix — against a map, checking
// the shape invariants throughout and the full contents at the end, then
// deletes every key so the tree loses its levels again. Every key goes in
// through one reused buffer: Set must copy it.
func TestTreeRandomOpsVsOracle(t *testing.T) {
	rng := newRand(t)
	tr := New()
	oracle := map[string]uint64{}
	var k []byte
	for op := 0; op < 40000; op++ {
		k = k[:0]
		if n := rng.Intn(6000); n%2 == 0 { // half the keys tie on their first eight bytes
			k = append(k, "the-same-prefix-"...)
		}
		k = fmt.Appendf(k, "key-%04d", rng.Intn(6000))
		if rng.Intn(3) == 0 {
			_, want := oracle[string(k)]
			delete(oracle, string(k))
			if got := tr.Delete(k); got != want {
				t.Fatalf("Delete(%q)=%v want %v", k, got, want)
			}
		} else {
			v := rng.Uint64()
			oracle[string(k)] = v
			tr.Set(k, v)
		}
		if op%500 == 0 {
			tr.Snapshot()
		}
		if op%997 == 0 {
			checkTree(t, tr)
		}
	}
	checkTree(t, tr)
	want := sortedKeys(oracle)
	keys, vals := collect(tr.Snapshot(), nil, nil)
	if len(keys) != len(want) || tr.Len() != len(want) {
		t.Fatalf("iterated %d keys, len %d, oracle has %d", len(keys), tr.Len(), len(want))
	}
	for i, k := range keys {
		if k != want[i] || vals[i] != oracle[k] {
			t.Fatalf("entry %d = %q/%d want %q/%d", i, k, vals[i], want[i], oracle[want[i]])
		}
		if v, ok := tr.Get([]byte(k)); !ok || v != vals[i] {
			t.Fatalf("Get(%q) = %d,%v want %d", k, v, ok, vals[i])
		}
	}
	rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	for i, k := range want {
		if !tr.Delete([]byte(k)) {
			t.Fatalf("Delete(%q) of a live key reported absent", k)
		}
		if i%97 == 0 {
			checkTree(t, tr)
		}
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Fatalf("emptied tree: len=%d root=%v", tr.Len(), tr.root)
	}
}

func TestAscendBounds(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Set([]byte(fmt.Sprintf("k%03d", i)), uint64(i))
	}
	s := tr.Snapshot()
	for _, c := range []struct{ start, end, want string }{
		{"k100", "k110", "[k100 k101 k102 k103 k104 k105 k106 k107 k108 k109]"},
		{"", "k003", "[k000 k001 k002]"},  // empty start: from the smallest key
		{"k997", "", "[k997 k998 k999]"},  // empty end: unbounded
		{"k100a", "k103", "[k101 k102]"},  // start between keys: next key up
		{"k500", "k500", "[]"},            // empty range
		{"k5", "k4", "[]"},                // inverted range
		{"zzz", "", "[]"},                 // past every key
		{"k031", "k033", "[k031 k032]"},   // start on an interior-node item
		{"k0305", "k0325", "[k031 k032]"}, // and just around one
		{"k99", "k999\x00", "[k990 k991 k992 k993 k994 k995 k996 k997 k998 k999]"},
	} {
		if keys, _ := collect(s, []byte(c.start), []byte(c.end)); fmt.Sprint(keys) != c.want {
			t.Errorf("[%q,%q) got %v want %s", c.start, c.end, keys, c.want)
		}
	}
	n := 0
	s.Ascend(nil, nil, func(k []byte, v uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestIterMatchesAscend(t *testing.T) {
	rng := newRand(t)
	tr := New()
	oracle := map[string]uint64{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%05d", rng.Intn(20000))
		oracle[k] = uint64(i)
		tr.Set([]byte(k), uint64(i))
	}
	all := sortedKeys(oracle)
	s := tr.Snapshot()
	for round := 0; round < 200; round++ {
		var start, end []byte
		if round > 0 { // round 0 is the unbounded scan
			start = []byte(fmt.Sprintf("%05d", rng.Intn(21000)))
			end = []byte(fmt.Sprintf("%05d", rng.Intn(21000)))
			if rng.Intn(4) == 0 {
				end = nil
			}
		}
		lo := sort.SearchStrings(all, string(start))
		hi := len(all)
		if end != nil {
			hi = max(lo, sort.SearchStrings(all, string(end)))
		}
		want := fmt.Sprint(all[lo:hi])
		if keys, _ := collect(s, start, end); fmt.Sprint(keys) != want {
			t.Fatalf("Ascend(%q,%q) = %v, want %v", start, end, keys, want)
		}
		var got []string
		it := s.Iter(start, end)
		for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
			if v != oracle[string(k)] {
				t.Fatalf("Iter payload of %q = %d want %d", k, v, oracle[string(k)])
			}
			got = append(got, string(k))
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("Iter(%q,%q) = %v, want %v", start, end, got, want)
		}
		if _, _, ok := it.Next(); ok {
			t.Fatalf("exhausted Iter yielded again")
		}
	}
}

// TestIterBatchMatchesIter checks that IterBatch positions every range's
// iterator exactly where Iter does — the same stack and bound — over random
// trees of every height: empty, one leaf, and deep, built by Set, by Load,
// and thinned by deletes behind a snapshot. Keys come in groups that share
// their first eight bytes, so starts tie on the inlined prefix; the starts
// also include nil, present keys, and keys past the end, and the ends nil,
// empty and random.
func TestIterBatchMatchesIter(t *testing.T) {
	rng := newRand(t)
	var size int
	key := func() []byte {
		k := fmt.Appendf(nil, "%08d", rng.Intn(size/4+1))
		if rng.Intn(8) == 0 {
			return k[:rng.Intn(9)] // short keys, the empty one included
		}
		for n := rng.Intn(4); n > 0; n-- {
			k = append(k, byte('a'+rng.Intn(8)))
		}
		return k
	}
	for _, size = range []int{0, 1, 20, maxItems, 600, 20000} {
		tr := New()
		var keys [][]byte
		for len(keys) < size {
			k := key()
			if _, ok := tr.Get(k); !ok {
				keys = append(keys, k)
				tr.Set(k, uint64(len(keys)))
			}
		}
		trees := map[string]Snapshot{"set": tr.Snapshot()}
		loaded := New()
		loaded.Load(len(keys), func(add func([]byte, uint64)) {
			for i, k := range keys {
				add(k, uint64(i))
			}
		})
		trees["load"] = loaded.Snapshot()
		for _, k := range keys[:len(keys)/3] {
			tr.Delete(k)
		}
		trees["thinned"] = tr.Snapshot()
		for name, s := range trees {
			const n = 64
			starts, ends := make([][]byte, n), make([][]byte, n)
			for i := range starts {
				switch rng.Intn(6) {
				case 0: // nil start
				case 1:
					starts[i] = []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff") // past the end
				case 2:
					if len(keys) > 0 {
						starts[i] = keys[rng.Intn(len(keys))]
					}
				default:
					starts[i] = key()
				}
				switch rng.Intn(4) {
				case 0: // unbounded
				case 1:
					ends[i] = []byte{}
				default:
					ends[i] = key()
				}
			}
			its := make([]Iter, n)
			s.IterBatch(its, starts, ends)
			for i := range its {
				want := s.Iter(starts[i], ends[i])
				got := &its[i]
				if got.depth != want.depth || got.stack != want.stack || !bytes.Equal(got.end, want.end) || (got.end == nil) != (want.end == nil) {
					t.Fatalf("%s tree of %d keys, range %d [%q, %q): IterBatch depth %d stack %v end %q, Iter depth %d stack %v end %q",
						name, size, i, starts[i], ends[i], got.depth, got.stack[:got.depth], got.end, want.depth, want.stack[:want.depth], want.end)
				}
				for {
					gk, gv, gok := got.Next()
					wk, wv, wok := want.Next()
					if gok != wok || !bytes.Equal(gk, wk) || gv != wv {
						t.Fatalf("%s tree of %d keys, range %d [%q, %q): IterBatch yields %q/%d/%v, Iter %q/%d/%v",
							name, size, i, starts[i], ends[i], gk, gv, gok, wk, wv, wok)
					}
					if !gok {
						break
					}
				}
			}
		}
	}
}

// frozenNode is a deep copy of what a snapshot can reach through one node.
type frozenNode struct {
	n    *node
	keys []string
	kids []*node
}

func freeze(n *node, out []frozenNode) []frozenNode {
	if n == nil {
		return out
	}
	f := frozenNode{n: n}
	for _, k := range n.keys[:n.n] {
		f.keys = append(f.keys, string(k))
	}
	if n.kids != nil {
		f.kids = append(f.kids, n.kids[:n.n+1]...)
	}
	out = append(out, f)
	for _, c := range f.kids {
		out = freeze(c, out)
	}
	return out
}

// TestNoWriteReachesSharedNode is the copy-on-write rule itself: after a
// snapshot, no amount of churn may change the item count, a key or a child
// pointer of any node the snapshot can reach (payloads are exempt: an
// overwrite stores into a shared node by design).
func TestNoWriteReachesSharedNode(t *testing.T) {
	rng := newRand(t)
	tr := New()
	for i := 0; i < 20000; i++ {
		tr.Set([]byte(fmt.Sprintf("k%06d", rng.Intn(40000))), uint64(i))
	}
	snap := tr.Snapshot()
	before := freeze(snap.root, nil)
	for i := 0; i < 60000; i++ {
		k := []byte(fmt.Sprintf("k%06d", rng.Intn(40000)))
		if rng.Intn(2) == 0 {
			tr.Delete(k)
		} else {
			tr.Set(k, uint64(i))
		}
	}
	checkTree(t, tr)
	for _, f := range before {
		if f.n.n != len(f.keys) {
			t.Fatalf("shared node resized: %d -> %d items", len(f.keys), f.n.n)
		}
		for i, k := range f.keys {
			if string(f.n.keys[i]) != k {
				t.Fatalf("shared node key %d rewritten: %q -> %q", i, k, f.n.keys[i])
			}
		}
		for i, c := range f.kids {
			if f.n.kids[i] != c {
				t.Fatalf("shared node child %d repointed", i)
			}
		}
	}
	checkInvariants(t, snap.root, snap.Len())
}

// TestLoad bulk-builds trees at sizes around every height boundary from
// shuffled entries with duplicates, and once from keys whose first eight
// bytes are all equal: the shape invariants hold, the contents
// are the distinct keys in order, a snapshot taken before the load keeps its
// version, writes after it never reach a node a later snapshot shares, and
// random ops after it keep agreeing with a map.
func TestLoad(t *testing.T) {
	rng := newRand(t)
	for _, size := range []int{0, 1, 2, 31, 32, 33, 63, 64, 500, 1023, 1024, 1025, 1056, 32767, 32768, 32769, 40000, -6000} {
		format := "k%07d"
		if size < 0 {
			size, format = -size, "sharedpfx-%07d"
		}
		tr := New()
		tr.Set([]byte("old"), 7)
		before := tr.Snapshot()
		want := map[string]uint64{}
		var adds []string
		for i := 0; i < size; i++ {
			r := rng.Intn(4 * size)
			k := fmt.Sprintf(format, r)
			want[k] = uint64(r) // one payload per key, as Load requires
			adds = append(adds, k)
		}
		tr.Load(len(want), func(add func([]byte, uint64)) {
			buf := []byte{}
			for _, k := range adds {
				buf = append(buf[:0], k...) // add must copy: the buffer is reused
				add(buf, want[k])
			}
		})
		checkTree(t, tr)
		if tr.Len() != len(want) {
			t.Fatalf("size %d: Len %d, want %d distinct", size, tr.Len(), len(want))
		}
		keys, vals := collect(tr.Snapshot(), nil, nil)
		for i, k := range sortedKeys(want) {
			if keys[i] != k || vals[i] != want[k] {
				t.Fatalf("size %d: entry %d is %q/%d, want %q/%d", size, i, keys[i], vals[i], k, want[k])
			}
		}
		if k, _ := collect(before, nil, nil); len(k) != 1 || k[0] != "old" {
			t.Fatalf("size %d: the snapshot before Load now holds %q", size, k)
		}

		snap := tr.Snapshot()
		frozen := freeze(snap.root, nil)
		for i := 0; i < 3*size+50; i++ {
			k := fmt.Sprintf(format, rng.Intn(4*size+1))
			if rng.Intn(2) == 0 {
				tr.Delete([]byte(k))
				delete(want, k)
			} else {
				tr.Set([]byte(k), uint64(i))
				want[k] = uint64(i)
			}
		}
		checkTree(t, tr)
		for _, f := range frozen {
			if f.n.n != len(f.keys) {
				t.Fatalf("size %d: a loaded node shared with a snapshot was written", size)
			}
		}
		checkInvariants(t, snap.root, snap.Len())
		keys, vals = collect(tr.Snapshot(), nil, nil)
		if len(keys) != len(want) {
			t.Fatalf("size %d: %d keys after the ops, want %d", size, len(keys), len(want))
		}
		for i, k := range sortedKeys(want) {
			if keys[i] != k || vals[i] != want[k] {
				t.Fatalf("size %d: after the ops entry %d is %q/%d, want %q/%d", size, i, keys[i], vals[i], k, want[k])
			}
		}

		v := tr.Version()
		tr.Load(0, nil)
		if tr.Len() != 0 || tr.root != nil || tr.Version() == v {
			t.Fatalf("size %d: Load(nil) left %d keys, version %d -> %d", size, tr.Len(), v, tr.Version())
		}
	}
}

// TestSnapshotsOfDifferentAges keeps several snapshots outstanding while the
// key set churns; each must keep replaying exactly the key sequence, Len and
// Version it was taken at, however many versions behind it is.
func TestSnapshotsOfDifferentAges(t *testing.T) {
	rng := newRand(t)
	tr := New()
	oracle := map[string]uint64{}
	type aged struct {
		snap Snapshot
		keys []string
		ver  uint64
	}
	var held []aged
	for round := 0; round < 40; round++ {
		for i := 0; i < 1500; i++ {
			k := fmt.Sprintf("k%05d", rng.Intn(8000))
			if rng.Intn(5) < 2 {
				delete(oracle, k)
				tr.Delete([]byte(k))
			} else {
				oracle[k] = uint64(i)
				tr.Set([]byte(k), uint64(i))
			}
		}
		s := tr.Snapshot()
		if e := tr.epoch; tr.Snapshot() != s || tr.epoch != e {
			t.Fatalf("round %d: a second snapshot of an unchanged tree differs or retired another epoch", round)
		}
		held = append(held, aged{s, sortedKeys(oracle), tr.Version()})
		if len(held) > 6 {
			held = held[rng.Intn(3):] // drop some of the oldest
		}
		for _, a := range held {
			keys, _ := collect(a.snap, nil, nil)
			if fmt.Sprint(keys) != fmt.Sprint(a.keys) || a.snap.Len() != len(a.keys) || a.snap.Version() != a.ver {
				t.Fatalf("round %d: snapshot of version %d drifted: %d keys (Len %d, Version %d), want %d",
					round, a.ver, len(keys), a.snap.Len(), a.snap.Version(), len(a.keys))
			}
		}
		checkTree(t, tr)
	}
}

// TestSnapshotIsolation pins the snapshot contract under a concurrent writer
// (run with -race): the key sequence, Len and Version of a snapshot are
// frozen — through overwrites, inserts between its keys and the deletion of
// every key it holds — while each key's payload may move, but only forward
// along the writer's increasing sequence.
func TestSnapshotIsolation(t *testing.T) {
	tr := New()
	const n = 4000
	for i := 0; i < n; i++ {
		tr.Set([]byte(fmt.Sprintf("k%05d", i)), 0)
	}
	snap := tr.Snapshot()
	wantVer := snap.Version()
	k0, last := collect(snap, nil, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < n; i++ {
			// Overwrite only keys not yet deleted (index ≥ i), so the final
			// live state is exactly the "new" keys.
			tr.Set([]byte(fmt.Sprintf("k%05d", i+rng.Intn(n-i))), uint64(i+1))
			tr.Set([]byte(fmt.Sprintf("k%05d.new", i)), uint64(i+1))
			tr.Delete([]byte(fmt.Sprintf("k%05d", i)))
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more pass after all churn
		default:
		}
		k, v := collect(snap, nil, nil)
		if len(k) != n || snap.Len() != n || snap.Version() != wantVer {
			t.Fatalf("snapshot moved: %d keys, Len %d, Version %d (want %d, %d)", len(k), snap.Len(), snap.Version(), n, wantVer)
		}
		for i := range k {
			if k[i] != k0[i] {
				t.Fatalf("entry %d changed key: %q -> %q", i, k0[i], k[i])
			}
			if v[i] < last[i] {
				t.Fatalf("payload of %q went backwards: %d -> %d", k[i], last[i], v[i])
			}
		}
		last = v
	}
	if tr.Len() != n {
		t.Fatalf("live len=%d want %d (new keys only)", tr.Len(), n)
	}
	if _, ok := tr.Get([]byte("k00000")); ok {
		t.Fatalf("live tree still has deleted key")
	}
	checkTree(t, tr)
}

// TestConcurrentReadersWriters hammers the tree from several writers and
// snapshot readers at once (run under -race): readers must always observe a
// sorted, duplicate-free key sequence of exactly Len keys.
func TestConcurrentReadersWriters(t *testing.T) {
	tr := New()
	const keys = 2048
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for gen := uint64(1); !stop.Load(); gen++ {
				k := []byte(fmt.Sprintf("k%04d", rng.Intn(keys)))
				if rng.Intn(4) == 0 {
					tr.Delete(k)
				} else {
					tr.Set(k, gen)
				}
			}
		}(int64(w + 1))
	}
	for rdr := 0; rdr < 3; rdr++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				s := tr.Snapshot()
				var prev []byte
				cnt := 0
				s.Ascend(nil, nil, func(k []byte, v uint64) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("unsorted/dup key under churn: %q after %q", k, prev)
						return false
					}
					prev = append(prev[:0], k...)
					cnt++
					return true
				})
				if cnt != s.Len() {
					t.Errorf("snapshot len %d but iterated %d", s.Len(), cnt)
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	checkTree(t, tr)
}

// churnKeys returns n distinct 32-byte keys in rng's order, shaped like the
// serving benchmark's: a little-endian rank, then a filler derived from it.
func churnKeys(rng *rand.Rand, n int) [][]byte {
	keys := make([][]byte, n)
	for i, r := range rng.Perm(n) {
		k := make([]byte, 32)
		binary.LittleEndian.PutUint64(k, uint64(r))
		for j := 8; j < len(k); j++ {
			k[j] = byte('k' + (r+j)%13)
		}
		keys[i] = k
	}
	return keys
}

// evictChurn runs pairs rounds of what an evicting SET does to the index at
// a steady key count — delete a resident key (keys[:resident]), insert an
// absent one (keys[resident:]) — and returns how many rounds ended with a
// different root node.
func evictChurn(tr *Tree, rng *rand.Rand, keys [][]byte, resident, pairs int) (rootReplaced int) {
	for p := 0; p < pairs; p++ {
		root := tr.root
		del, add := rng.Intn(resident), resident+rng.Intn(len(keys)-resident)
		tr.Delete(keys[del])
		tr.Set(keys[add], uint64(p))
		keys[del], keys[add] = keys[add], keys[del]
		if tr.root != root {
			rootReplaced++
		}
	}
	return rootReplaced
}

// TestEvictChurnKeepsRoot pins the split/merge hysteresis. Were a merge of
// two splitAt-item children full, a delete could collapse a one-item root
// into one node and the next insert split it again, pair after pair. Whether
// a size starts in that shape depends on the insertion order, so the order
// is fixed (seed 1, under which both sizes start with a one-item root over
// two splitAt-item children) unless -ordered.seed picks another.
func TestEvictChurnKeepsRoot(t *testing.T) {
	const pairs = 5000
	seed := *seedFlag
	if seed == 0 {
		seed = 1
	}
	for _, resident := range []int{300000, 340000} {
		rng := rand.New(rand.NewSource(seed))
		keys := churnKeys(rng, 2*resident)
		tr := New()
		for i, k := range keys[:resident] {
			tr.Set(k, uint64(i))
		}
		if n := evictChurn(tr, rng, keys, resident, pairs); n > pairs/100 {
			t.Fatalf("%d keys: root replaced in %d of %d delete+insert pairs (seed %d)", resident, n, pairs, seed)
		}
		checkTree(t, tr)
	}
}

// benchKeys returns 2^20 shuffled 16-byte keys: hashed ids, which differ
// within their first eight bytes, or, with shared set, ids behind one
// eight-byte prefix, which the nodes' inlined prefixes cannot tell apart.
func benchKeys(shared bool) [][]byte {
	keys := make([][]byte, 1<<20)
	for i := range keys {
		if keys[i] = fmt.Appendf(nil, "%08x-userkey", uint32(i)*2654435761); shared {
			keys[i] = fmt.Appendf(nil, "userkey-%08d", i)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// benchOp times op on a tree holding every key, once per key shape.
func benchOp(b *testing.B, op func(tr *Tree, key []byte, i int)) {
	for _, shared := range []bool{false, true} {
		b.Run(fmt.Sprintf("sharedprefix=%v", shared), func(b *testing.B) {
			keys := benchKeys(shared)
			tr := New()
			for i, k := range keys {
				tr.Set(k, uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(tr, keys[i%len(keys)], i)
			}
		})
	}
}

// BenchmarkTreeSet builds a tree nobody snapshots from nothing, key by key.
func BenchmarkTreeSet(b *testing.B) {
	keys := benchKeys(false)
	var tr *Tree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 {
			tr = New()
		}
		tr.Set(keys[i%len(keys)], uint64(i))
	}
}

func BenchmarkTreeOverwrite(b *testing.B) {
	benchOp(b, func(tr *Tree, k []byte, i int) { tr.Set(k, uint64(i)) })
}

// One op is a delete plus the insert that puts the key back.
func BenchmarkTreeDelete(b *testing.B) {
	benchOp(b, func(tr *Tree, k []byte, i int) { tr.Delete(k); tr.Set(k, uint64(i)) })
}

// One op is what an evicting SET does to the index: delete a resident key,
// insert a different, absent one — two descents down unrelated paths, 32-byte
// keys, 300 000 resident of 600 000.
func BenchmarkTreeEvictChurn(b *testing.B) {
	const resident = 300000
	rng := rand.New(rand.NewSource(1))
	keys := churnKeys(rng, 2*resident)
	tr := New()
	for i, k := range keys[:resident] {
		tr.Set(k, uint64(i))
	}
	splits, merges := tr.Churn()
	b.ReportAllocs()
	b.ResetTimer()
	evictChurn(tr, rng, keys, resident, b.N)
	s, m := tr.Churn()
	b.ReportMetric(float64(s-splits)/float64(b.N), "splits/op")
	b.ReportMetric(float64(m-merges)/float64(b.N), "merges/op")
}

// BenchmarkTreeApplySorted is the sorted update delta, measured before
// building it: the index work of an evicting SET workload — thirds of
// overwrite, victim delete and insert over 340 000 resident 32-byte keys —
// applied in batches sorted by key (stably, so the ops on one key keep their
// order) against applied one at a time (batch=1). The sort is timed with the
// batch; generating the ops is not.
func BenchmarkTreeApplySorted(b *testing.B) {
	const resident = 340000
	type op struct {
		key []byte
		del bool
	}
	for _, batch := range []int{1, 64, 512, 4096, 64 << 10} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := churnKeys(rng, 2*resident)
			tr := New()
			for i, k := range keys[:resident] {
				tr.Set(k, uint64(i))
			}
			ops := make([]op, b.N)
			for i := range ops {
				switch i % 3 {
				case 0: // overwrite a resident key
					ops[i] = op{key: keys[rng.Intn(resident)]}
				case 1: // delete a resident key, which leaves the resident set
					j, k := rng.Intn(resident), resident+rng.Intn(resident)
					ops[i] = op{key: keys[j], del: true}
					keys[j], keys[k] = keys[k], keys[j]
				case 2: // insert an absent key, which joins it
					j, k := resident+rng.Intn(resident), rng.Intn(resident)
					ops[i] = op{key: keys[j]}
					keys[j], keys[k] = keys[k], keys[j]
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for lo := 0; lo < len(ops); lo += batch {
				run := ops[lo:min(lo+batch, len(ops))]
				if batch > 1 {
					slices.SortStableFunc(run, func(x, y op) int { return bytes.Compare(x.key, y.key) })
				}
				for i, o := range run {
					if o.del {
						tr.Delete(o.key)
					} else {
						tr.Set(o.key, uint64(i))
					}
				}
			}
		})
	}
}

// The lazy copy at its most expensive: a snapshot before every delete+insert
// pair, so each pair copies both its root-to-leaf paths.
func BenchmarkTreeInsertAfterSnapshot(b *testing.B) {
	benchOp(b, func(tr *Tree, k []byte, i int) { tr.Snapshot(); tr.Delete(k); tr.Set(k, uint64(i)) })
}

func BenchmarkSnapshotAscend(b *testing.B) {
	tr := New()
	for i := 0; i < 65536; i++ {
		tr.Set([]byte(fmt.Sprintf("key-%08d", i)), uint64(i))
	}
	s := tr.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Ascend([]byte("key-00030000"), nil, func(k []byte, v uint64) bool {
			n++
			return n < 100
		})
	}
}
