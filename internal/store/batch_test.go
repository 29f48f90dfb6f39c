package store

import (
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/slab"
)

func TestReadCandidatesHit(t *testing.T) {
	s := newTestStore()
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	cands := s.IndexSearch([]byte("alpha"), nil)
	if len(cands) == 0 {
		t.Fatal("IndexSearch found no candidates for a present key")
	}
	out, ok := s.ReadCandidates([]byte("alpha"), cands, nil)
	if !ok || string(out) != "one" {
		t.Fatalf("ReadCandidates = %q/%v, want one/true", out, ok)
	}
	// Appends to dst like GetInto.
	out2, ok := s.ReadCandidates([]byte("alpha"), cands, []byte("x"))
	if !ok || string(out2) != "xone" {
		t.Fatalf("ReadCandidates append = %q/%v, want xone/true", out2, ok)
	}
}

func TestReadCandidatesStaleFallsBack(t *testing.T) {
	s := newTestStore()
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	stale := s.IndexSearch([]byte("alpha"), nil)
	// Overwrite (retires the old slab handle) after the search collected its
	// candidates — the pipelined window a concurrent SET can land in.
	if _, _, err := s.Set([]byte("alpha"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	out, ok := s.ReadCandidates([]byte("alpha"), stale, nil)
	if !ok || string(out) != "two" {
		t.Fatalf("ReadCandidates with stale cands = %q/%v, want authoritative two/true", out, ok)
	}
}

func TestReadCandidatesEmptyFallsBack(t *testing.T) {
	s := newTestStore()
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	// No candidates at all (a same-batch insert the search ran before):
	// must still resolve via the authoritative read, not report a miss.
	out, ok := s.ReadCandidates([]byte("alpha"), nil, nil)
	if !ok || string(out) != "one" {
		t.Fatalf("ReadCandidates(nil cands) = %q/%v, want one/true", out, ok)
	}
}

func TestReadCandidatesMiss(t *testing.T) {
	s := newTestStore()
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	// A deleted key with its (now stale) candidates must miss, and the dst
	// prefix must come back untouched.
	cands := s.IndexSearch([]byte("alpha"), nil)
	s.Delete([]byte("alpha"))
	out, ok := s.ReadCandidates([]byte("alpha"), cands, []byte("pfx"))
	if ok || string(out) != "pfx" {
		t.Fatalf("ReadCandidates after delete = %q/%v, want pfx/false", out, ok)
	}
}

// foreignLocs returns locations s never issued, each decoded by the slab's
// handle layout ((class<<40 | index) + 1): NoHandle, a class beyond the
// allocator's, an index beyond the arena, and a bit above the 44-bit handle.
func foreignLocs(s *Store) []cuckoo.Location {
	return []cuckoo.Location{
		cuckoo.Location(slab.NoHandle),
		cuckoo.Location(uint64(s.alloc.Classes())<<40 + 1),
		cuckoo.Location(1<<40 - 1),
		cuckoo.Location(1<<47 | 1),
	}
}

// TestReadCandidatesForeignShardSkipped (named for the sharded store it was
// written for): candidates that cannot be the key's object — another key's
// live object and locations the store never issued — fail verification
// without a panic, and the authoritative fallback resolves the right value.
func TestReadCandidatesForeignShardSkipped(t *testing.T) {
	s := New(Config{MemoryBytes: 8 << 20, IndexEntries: 4096, Seed: 3})
	if _, _, err := s.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Set([]byte("beta"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	wrong := append(s.IndexSearch([]byte("beta"), nil), foreignLocs(s)...)
	out, ok := s.ReadCandidates([]byte("alpha"), wrong, nil)
	if !ok || string(out) != "one" {
		t.Fatalf("ReadCandidates with foreign cands = %q/%v, want one/true", out, ok)
	}
	for _, loc := range foreignLocs(s) {
		if s.KeyCompare(loc, []byte("alpha")) {
			t.Fatalf("KeyCompare(%#x) verified a location the store never issued", loc)
		}
		if _, ok := s.ReadValueInto(loc, nil); ok {
			t.Fatalf("ReadValueInto(%#x) read a location the store never issued", loc)
		}
	}
}
