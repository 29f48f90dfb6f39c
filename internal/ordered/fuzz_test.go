package ordered

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzOrderedTree drives the lazy-COW B-tree with an arbitrary op tape and
// cross-checks every observable — membership, length, full iteration order,
// bounded iteration, and the explicit-stack iterator — against a sorted-slice
// oracle, then re-verifies a snapshot taken mid-tape after the remaining ops
// ran: same key sequence, payloads no older than when it was taken. An op
// byte 0x40–0x7f bulk-builds the tree from the oracle's contents (Load, fed
// in descending order so it has to sort them), and the tape runs on against
// the oracle from there.
func FuzzOrderedTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 'a', 0x01, 'b', 0x81, 'a'})
	f.Add([]byte{0x03, 'a', 'b', 'c', 0x83, 'a', 'b', 'c', 0x03, 'a', 'b', 'c'})
	f.Add(bytes.Repeat([]byte{0x02, 'x', 'y'}, 40))
	f.Add(append(bytes.Repeat([]byte{0x02, 'x', 'y', 0x01, 'z'}, 40), 0x40, 0x02, 'x', 'a', 0x81, 'z'))

	type kv struct {
		k string
		v uint64
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		tr := New()
		var oracle []kv
		find := func(k string) int {
			return sort.Search(len(oracle), func(i int) bool { return oracle[i].k >= k })
		}
		oracleSet := func(k string, v uint64) {
			i := find(k)
			if i < len(oracle) && oracle[i].k == k {
				oracle[i].v = v
				return
			}
			oracle = append(oracle, kv{})
			copy(oracle[i+1:], oracle[i:])
			oracle[i] = kv{k, v}
		}
		oracleDel := func(k string) bool {
			i := find(k)
			if i == len(oracle) || oracle[i].k != k {
				return false
			}
			oracle = append(oracle[:i], oracle[i+1:]...)
			return true
		}
		check := func() {
			if tr.Len() != len(oracle) {
				t.Fatalf("len=%d oracle=%d", tr.Len(), len(oracle))
			}
			i := 0
			tr.Snapshot().Ascend(nil, nil, func(k []byte, v uint64) bool {
				if i >= len(oracle) {
					t.Fatalf("iteration yielded extra key %q", k)
				}
				if string(k) != oracle[i].k || v != oracle[i].v {
					t.Fatalf("entry %d: got %q/%d want %q/%d", i, k, v, oracle[i].k, oracle[i].v)
				}
				i++
				return true
			})
			if i != len(oracle) {
				t.Fatalf("iteration stopped at %d of %d", i, len(oracle))
			}
		}

		var midSnap Snapshot
		var midOracle []kv
		seenOps := 0
		for len(tape) > 0 {
			op := tape[0]
			tape = tape[1:]
			kl := int(op & 0x3f)
			if kl > len(tape) {
				kl = len(tape)
			}
			key := tape[:kl]
			tape = tape[kl:]
			if op&0xc0 == 0x40 {
				tr.Load(func(add func([]byte, uint64)) {
					for i := len(oracle) - 1; i >= 0; i-- {
						add([]byte(oracle[i].k), oracle[i].v)
					}
				})
				checkTree(t, tr)
				check()
				continue
			}
			if len(key) == 0 {
				continue
			}
			seenOps++
			switch {
			case op&0x80 != 0:
				got := tr.Delete(key)
				want := oracleDel(string(key))
				if got != want {
					t.Fatalf("Delete(%q)=%v oracle=%v", key, got, want)
				}
			default:
				v := uint64(seenOps)
				tr.Set(key, v)
				oracleSet(string(key), v)
			}
			if seenOps == 8 { // freeze a mid-tape version
				midSnap = tr.Snapshot()
				midOracle = append([]kv(nil), oracle...)
			}
			if seenOps%16 == 0 {
				check()
			}
		}
		check()

		// Bounded iteration + Iter must agree with the oracle slice.
		if len(oracle) > 1 {
			start, end := []byte(oracle[len(oracle)/4].k), []byte(oracle[3*len(oracle)/4].k)
			lo, hi := find(string(start)), find(string(end))
			j := lo
			tr.Snapshot().Ascend(start, end, func(k []byte, v uint64) bool {
				if j >= hi || string(k) != oracle[j].k {
					t.Fatalf("bounded scan mismatch at %d: %q", j, k)
				}
				j++
				return true
			})
			if j != hi {
				t.Fatalf("bounded scan covered %d..%d, want %d..%d", lo, j, lo, hi)
			}
			it := tr.Snapshot().Iter(start, end)
			for j = lo; ; j++ {
				k, v, ok := it.Next()
				if !ok {
					break
				}
				if j >= hi || string(k) != oracle[j].k || v != oracle[j].v {
					t.Fatalf("Iter mismatch at %d: %q/%d", j, k, v)
				}
			}
			if j != hi {
				t.Fatalf("Iter covered up to %d, want %d", j, hi)
			}
		}

		// The mid-tape snapshot must still hold the keys it held when taken;
		// payloads are op numbers, so a newer one is a larger one.
		if midOracle != nil {
			i := 0
			midSnap.Ascend(nil, nil, func(k []byte, v uint64) bool {
				if i >= len(midOracle) || string(k) != midOracle[i].k || v < midOracle[i].v {
					t.Fatalf("mid snapshot drifted at %d: %q/%d", i, k, v)
				}
				i++
				return true
			})
			if i != len(midOracle) {
				t.Fatalf("mid snapshot lost entries: %d of %d", i, len(midOracle))
			}
		}
	})
}
