package main

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"

	"repro/internal/proto"
	"repro/internal/zipf"
)

// Keys carry their rank in the first 8 bytes and a fill derived from the rank
// after (the layout of workload.Generator.KeyAt). Values are a function of
// the key alone, so any reply can be checked byte for byte without knowing
// which SET wrote it last.

func putKey(dst []byte, rank uint64) {
	binary.LittleEndian.PutUint64(dst, rank)
	for i := 8; i < len(dst); i++ {
		dst[i] = byte('k' + (rank+uint64(i))%13)
	}
}

// keyRank returns the rank a well-formed key of this stream encodes.
func keyRank(key []byte) (uint64, bool) {
	if len(key) < 8 {
		return 0, false
	}
	rank := binary.LittleEndian.Uint64(key)
	for i := 8; i < len(key); i++ {
		if key[i] != byte('k'+(rank+uint64(i))%13) {
			return 0, false
		}
	}
	return rank, true
}

// valueWord is word j of the value stored under rank (splitmix64 finalizer).
func valueWord(rank uint64, j int) uint64 {
	z := rank*0x9E3779B97F4A7C15 + uint64(j+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// putValue fills dst with the value of rank.
func putValue(dst []byte, rank uint64) {
	var w [8]byte
	for j := 0; j*8 < len(dst); j++ {
		binary.LittleEndian.PutUint64(w[:], valueWord(rank, j))
		copy(dst[j*8:], w[:])
	}
}

// checkValue reports whether got is exactly the value of rank at size n.
func checkValue(got []byte, rank uint64, n int) bool {
	if len(got) != n {
		return false
	}
	var w [8]byte
	for j := 0; j*8 < n; j++ {
		binary.LittleEndian.PutUint64(w[:], valueWord(rank, j))
		end := j*8 + 8
		if end > n {
			end = n
		}
		if !bytes.Equal(got[j*8:end], w[:end-j*8]) {
			return false
		}
	}
	return true
}

// frameBuf is one request frame and what its replies are checked against.
// Query keys and values alias arena.
type frameBuf struct {
	queries []proto.Query
	ranks   []uint64 // rank of queries[i].Key
	arena   []byte
}

func (f *frameBuf) reset() {
	f.queries = f.queries[:0]
	f.ranks = f.ranks[:0]
	f.arena = f.arena[:0]
}

// grab returns n fresh bytes of the frame's arena. The arena is sized once
// for the largest frame, so earlier slices stay valid.
func (f *frameBuf) grab(n int) []byte {
	if len(f.arena)+n > cap(f.arena) {
		panic("benchmark: frame arena too small")
	}
	f.arena = f.arena[:len(f.arena)+n]
	return f.arena[len(f.arena)-n:]
}

// newFrameBuf returns a frame with room for n queries of w.
func newFrameBuf(w *workloadSpec, n int) *frameBuf {
	per := w.keySize + w.valSize
	if s := w.keySize + 4; s > per {
		per = s
	}
	return &frameBuf{
		queries: make([]proto.Query, 0, n),
		ranks:   make([]uint64, 0, n),
		arena:   make([]byte, 0, n*per),
	}
}

func (f *frameBuf) add(w *workloadSpec, op proto.Op, rank uint64) {
	key := f.grab(w.keySize)
	putKey(key, rank)
	q := proto.Query{Op: op, Key: key}
	switch op {
	case proto.OpSet:
		q.Value = f.grab(w.valSize)
		putValue(q.Value, rank)
	case proto.OpScan:
		q.Value = proto.AppendScanArg(f.grab(4)[:0], scanLimit, nil)
	}
	f.queries = append(f.queries, q)
	f.ranks = append(f.ranks, rank)
}

// frameSource produces the frames of one phase of a run.
type frameSource interface {
	// fill writes the next frame into f and reports false when the source is
	// exhausted (f is then empty).
	fill(f *frameBuf) bool
	// frameQueries is the most queries fill puts in one frame.
	frameQueries() int
}

// preloadSource SETs every key of the population once, in rank order.
type preloadSource struct {
	w       *workloadSpec
	next    uint64
	perFill int
}

// preloadFrameBytes bounds a preload frame so a window of them fits the
// server socket's default receive buffer whatever the value size.
const preloadFrameBytes = 16 << 10

func newPreloadSource(w *workloadSpec) *preloadSource {
	per := preloadFrameBytes / (7 + w.keySize + w.valSize)
	if w.resp {
		per = w.frameQueries
	}
	return &preloadSource{w: w, perFill: per}
}

func (p *preloadSource) frameQueries() int { return p.perFill }

func (p *preloadSource) fill(f *frameBuf) bool {
	f.reset()
	for i := 0; i < p.perFill && p.next < p.w.population; i++ {
		f.add(p.w, proto.OpSet, p.next)
		p.next++
	}
	return len(f.queries) > 0
}

// opStream is the seeded measured traffic: key choice, op mix and scan starts
// all come from the seed and from nothing else, and only the sender draws
// from it, so the n-th query of a run is the same on every run of that seed.
type opStream struct {
	w     *workloadSpec
	rng   *rand.Rand
	keys  []*zipf.Generator // one per phase
	count uint64

	// digest covers the wire form of the first hashQueries queries, so "same
	// seed, same stream" can be checked from two reports.
	digest  hash.Hash64
	hashed  int
	scratch []byte
}

const hashQueries = 65536

func newOpStream(w *workloadSpec, seed int64) *opStream {
	s := &opStream{w: w, rng: rand.New(rand.NewSource(seed)), digest: fnv.New64a()}
	for i, m := range w.phases {
		s.keys = append(s.keys, zipf.NewGenerator(w.population, m.skew, seed+int64(i)+1))
	}
	return s
}

func (s *opStream) frameQueries() int { return s.w.frameQueries }

func (s *opStream) fill(f *frameBuf) bool {
	f.reset()
	w := s.w
	for i := 0; i < w.frameQueries; i++ {
		phase := 0
		if w.period > 0 {
			phase = int(s.count/w.period) % len(w.phases)
		}
		s.count++
		rank := s.keys[phase].Next() - 1
		op := proto.OpSet
		switch u := s.rng.Float64(); {
		case u < w.scanShare:
			op = proto.OpScan
		case s.rng.Float64() < w.phases[phase].getRatio:
			op = proto.OpGet
		}
		f.add(w, op, rank)
	}
	if s.hashed < hashQueries {
		for _, q := range f.queries {
			s.scratch = proto.AppendQuery(s.scratch[:0], q)
			s.digest.Write(s.scratch)
		}
		s.hashed += len(f.queries)
	}
	return true
}

// hash returns the digest of the stream's first hashQueries queries (fewer if
// the run was shorter).
func (s *opStream) hash() uint64 { return s.digest.Sum64() }
