package store

import "repro/internal/cuckoo"

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
// case (no index search ran, or the search raced an insert).
func (s *Store) ReadCandidates(key []byte, cands []cuckoo.Location, dst []byte) ([]byte, bool) {
	s.gets.Inc()
	si, sh, hv := s.shardFor(key)
	for _, loc := range cands {
		if shardOfLoc(loc) != si {
			continue // foreign-shard candidate: cannot be key's object
		}
		h := handleOf(loc)
		if out, ok := sh.alloc.ReadIfMatch(h, key, dst); ok {
			s.hits.Inc()
			sh.alloc.Touch(h, s.stamp.Load())
			return out, true
		}
	}
	return s.readVerified(sh, hv, key, dst)
}
