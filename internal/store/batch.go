package store

import (
	"repro/internal/cuckoo"
	"repro/internal/slab"
)

// ReadCandidates performs the fused KC+RD tasks of the staged serving path:
// verify cands (previously collected by IndexSearch for key, possibly in an
// earlier pipeline stage) and append the live value to dst, returning the
// extended slice. Like GetInto it is lock-free and, with sufficient dst
// capacity, allocation-free.
//
// KC and RD are fused here rather than separately staged because the slab's
// seqlock read contract couples them: a key compare that succeeds is only
// meaningful together with the value copy validated under the same chunk
// version (see DESIGN.md §5.9) — splitting them would reopen the torn-read
// window the seqlock closes.
//
// Candidates can be stale by the time this runs: a concurrent SET may have
// retired the location IndexSearch returned. Stale candidates must not
// manufacture a miss, so when none verifies the read falls back to the
// authoritative version-validated lookup, which also covers the empty-cands
// case (no index search ran, or the search raced an insert). A location the
// store never issued fails verification in the slab's bounds-checked lookup
// and takes the same fallback.
func (s *Store) ReadCandidates(key []byte, cands []cuckoo.Location, dst []byte) ([]byte, bool) {
	s.gets.Inc()
	for _, loc := range cands {
		h := slab.Handle(loc)
		if out, ok := s.alloc.ReadIfMatch(h, key, dst); ok {
			s.hits.Inc()
			s.alloc.Touch(h, s.stamp.Load())
			return out, true
		}
	}
	return s.readVerified(s.hash(key), key, dst)
}
