package slab

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// seqCfg is a one-class arena small enough to force constant chunk reuse.
func seqCfg() Config {
	return Config{TotalBytes: 4 << 10, SlabBytes: 4 << 10, MinChunk: 256, MaxChunk: 256, Growth: 2}
}

func TestReadIntoAppends(t *testing.T) {
	a := NewAllocator(DefaultConfig(1 << 20))
	h, _, err := a.Alloc([]byte("k"), []byte("value"), 1)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("pre:")
	out, ok := a.ReadInto(h, prefix)
	if !ok || string(out) != "pre:value" {
		t.Fatalf("ReadInto = %q/%v", out, ok)
	}
	if out, ok = a.ReadInto(Handle(999), prefix); ok || !bytes.Equal(out, prefix) {
		t.Fatalf("dead-handle ReadInto = %q/%v, want unchanged dst", out, ok)
	}
}

func TestMatchKeyAndReadIfMatch(t *testing.T) {
	a := NewAllocator(DefaultConfig(1 << 20))
	h, _, err := a.Alloc([]byte("alpha"), []byte("one"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.MatchKey(h, []byte("alpha")) {
		t.Fatal("MatchKey should match the stored key")
	}
	if a.MatchKey(h, []byte("alphb")) || a.MatchKey(h, []byte("alph")) {
		t.Fatal("MatchKey matched a different key")
	}
	if v, ok := a.ReadIfMatch(h, []byte("alpha"), nil); !ok || string(v) != "one" {
		t.Fatalf("ReadIfMatch = %q/%v", v, ok)
	}
	if _, ok := a.ReadIfMatch(h, []byte("beta"), nil); ok {
		t.Fatal("ReadIfMatch hit on the wrong key")
	}
	a.Free(h)
	if a.MatchKey(h, []byte("alpha")) {
		t.Fatal("MatchKey matched a freed chunk")
	}
	if _, ok := a.ReadIfMatch(h, []byte("alpha"), nil); ok {
		t.Fatal("ReadIfMatch hit a freed chunk")
	}
}

// TestSeqlockReadDuringReuse is the tentpole regression: readers hold
// handles while writers free and reuse the same chunks. Every successful
// read must return a self-consistent (key, value) pair — values encode
// their key, so a read that mixes bytes from two generations is caught.
// Under -race this also proves the word-based arena is data-race-free.
func TestSeqlockReadDuringReuse(t *testing.T) {
	a := NewAllocator(seqCfg())
	const (
		workers = 4
		slots   = 8 // 4KB / 256B = 16 chunks; churn across half
		iters   = 5000
	)
	var mu sync.Mutex
	handles := make([]Handle, slots)
	keys := make([][]byte, slots)
	for i := range handles {
		k := []byte(fmt.Sprintf("key-%02d", i))
		h, _, err := a.Alloc(k, bytes.Repeat([]byte{byte(i)}, 64), 1)
		if err != nil {
			t.Fatal(err)
		}
		handles[i], keys[i] = h, k
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, 0, 256)
			for i := 0; i < iters; i++ {
				s := (w + i) % slots
				mu.Lock()
				h, k := handles[s], keys[s]
				mu.Unlock()
				if i%3 == 0 && w == 0 {
					// Writer lane: retire and reallocate the slot.
					gen := byte(i)
					nk := []byte(fmt.Sprintf("key-%02d", s))
					a.Free(h)
					nh, _, err := a.Alloc(nk, bytes.Repeat([]byte{gen}, 64), 1)
					if err != nil {
						t.Errorf("realloc: %v", err)
						return
					}
					mu.Lock()
					handles[s], keys[s] = nh, nk
					mu.Unlock()
					continue
				}
				key, val, ok := a.Object(h)
				if !ok {
					continue // freed under us: a miss, never a tear
				}
				if !bytes.Equal(key, k) && !bytes.HasPrefix(key, []byte("key-")) {
					t.Errorf("torn key %q", key)
					return
				}
				for j := 1; j < len(val); j++ {
					if val[j] != val[0] {
						t.Errorf("torn value: bytes %#x and %#x in one read", val[0], val[j])
						return
					}
				}
				if out, ok := a.ReadIfMatch(h, k, dst[:0]); ok {
					for j := 1; j < len(out); j++ {
						if out[j] != out[0] {
							t.Errorf("torn ReadIfMatch: %#x vs %#x", out[0], out[j])
							return
						}
					}
					dst = out[:0]
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkReadIfMatch measures the seqlock read with a reused buffer — the
// store's GET inner loop. Must be 0 allocs/op.
func BenchmarkReadIfMatch(b *testing.B) {
	a := NewAllocator(DefaultConfig(16 << 20))
	key := []byte("bench-key")
	h, _, err := a.Alloc(key, bytes.Repeat([]byte{7}, 100), 1)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ok := a.ReadIfMatch(h, key, dst[:0])
		if !ok {
			b.Fatal("miss")
		}
		dst = out[:0]
	}
}

// TestPrefetchBadHandles: AppendPrefetchLines resolves its handle through
// the same bounds-checked snapshot as ReadIfMatch, so no handle a stale or
// garbage candidate can carry makes it panic or list a word outside the
// arena, it lists at most prefetchLines+1 words, and loading them changes
// nothing.
func TestPrefetchBadHandles(t *testing.T) {
	a := NewAllocator(DefaultConfig(4 << 20))
	h, _, err := a.Alloc([]byte("alpha"), []byte("one"), 1)
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := a.Alloc([]byte("big"), bytes.Repeat([]byte{7}, 4000), 1)
	if err != nil {
		t.Fatal(err)
	}
	freed, _, err := a.Alloc([]byte("gone"), []byte("x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(freed)
	for name, bad := range map[string]Handle{
		"NoHandle":           NoHandle,
		"class out of range": makeHandle(a.Classes(), 0),
		"beyond the arena":   makeHandle(0, indexMask),
	} {
		if got := a.AppendPrefetchLines(nil, bad); len(got) != 0 {
			t.Errorf("AppendPrefetchLines(%s) listed %d words, want 0", name, len(got))
		}
	}
	var lines []*atomic.Uint64
	for _, live := range []Handle{h, big, freed} {
		n := len(lines)
		lines = a.AppendPrefetchLines(lines, live)
		if got := len(lines) - n; got < 2 || got > prefetchLines+1 {
			t.Errorf("AppendPrefetchLines(%v) listed %d words, want 2..%d", live, got, prefetchLines+1)
		}
	}
	var sink uint64
	for _, w := range lines {
		sink += w.Load()
	}
	_ = sink
	if v, ok := a.ReadIfMatch(h, []byte("alpha"), nil); !ok || string(v) != "one" {
		t.Fatalf("ReadIfMatch after the prefetch loads = %q/%v", v, ok)
	}
	if _, ok := a.ReadIfMatch(freed, []byte("gone"), nil); ok {
		t.Fatal("a freed chunk verified after the prefetch loads")
	}
}
