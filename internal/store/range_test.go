package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRangeSeesAllLiveObjects populates a quiescent store and checks the walk
// returns exactly the live set.
func TestRangeSeesAllLiveObjects(t *testing.T) {
	s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 1 << 12})
	want := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("value-%04d", i)
		if _, _, err := s.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Delete a slice of them; Range must not see deleted objects.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		s.Delete([]byte(k))
		delete(want, k)
	}
	got := map[string]string{}
	s.Range(func(k, v []byte) bool {
		if _, dup := got[string(k)]; dup {
			t.Errorf("key %s visited twice", k)
		}
		got[string(k)] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range saw %d objects, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: range saw %q, want %q", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 1 << 12})
	for i := 0; i < 100; i++ {
		if _, _, err := s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	s.Range(func(k, v []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d objects", n)
	}
}

// TestRangeUnderChurn runs the walk concurrently with writers; under -race
// this pins the lock-free seqlock iteration. Every observed object must be
// internally consistent (value matches the key it was written with).
func TestRangeUnderChurn(t *testing.T) {
	s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 1 << 12})
	const keys = 256
	for i := 0; i < keys; i++ {
		if _, _, err := s.Set([]byte(fmt.Sprintf("ck%03d", i)), []byte(fmt.Sprintf("ck%03d-val-0", i))); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := 1; !stop.Load(); gen++ {
				for i := w; i < keys; i += 3 {
					k := fmt.Sprintf("ck%03d", i)
					if gen%5 == 0 {
						s.Delete([]byte(k))
					} else if _, _, err := s.Set([]byte(k), []byte(fmt.Sprintf("%s-val-%d", k, gen))); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for pass := 0; pass < 20; pass++ {
		s.Range(func(k, v []byte) bool {
			if len(k) < 5 || string(v[:len(k)]) != string(k) {
				t.Errorf("torn read: key %q value %q", k, v)
				return false
			}
			return true
		})
	}
	stop.Store(true)
	wg.Wait()
}
