package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/zipf"
)

// Shared benchmark fixture: one populated store serves every BenchmarkSearchBatch
// sub-benchmark (the measured operations are overwrites and reads of a fixed
// key population, so the store state stays equivalent across variants). The
// population is large enough (2^20 keys, ~100 MB of objects) that the zipf
// tail misses cache — the regime the wide batched search is for.
const (
	benchPop     = 1 << 20
	benchValSize = 64
	benchRing    = 1 << 16
)

var (
	benchOnce sync.Once
	benchSt   *Store
	benchKeys [][]byte
	benchIdx  []uint32
)

func benchFixture(b *testing.B) (*Store, [][]byte, []uint32) {
	b.Helper()
	benchOnce.Do(func() {
		benchSt = New(Config{MemoryBytes: 256 << 20, IndexEntries: 1 << 21, Seed: 11})
		benchKeys = make([][]byte, benchPop)
		val := bytes.Repeat([]byte{0xcd}, benchValSize)
		for i := range benchKeys {
			benchKeys[i] = []byte(fmt.Sprintf("bench-key-%08d", i))
			if _, _, err := benchSt.Set(benchKeys[i], val); err != nil {
				panic(err)
			}
		}
		g := zipf.NewGenerator(benchPop, 0.99, 7)
		benchIdx = make([]uint32, benchRing)
		for i := range benchIdx {
			benchIdx[i] = uint32(g.Next())
		}
	})
	return benchSt, benchKeys, benchIdx
}

// BenchmarkSearchBatch compares the wide batched GET path
// (GetBatch: SearchBatch waves + fused verify, the live pipeline's only read
// path) against the scalar per-key path (GetInto) on the paper's serving
// workload: 95% GET / 5% SET with zipf(0.99)-skewed keys. Both sub-benchmarks
// process the identical operation stream in batches of the given size; ns/op
// is per query. Every 20th query is a SET, so batches of 1 and 4 are
// GET-only. The index is sized to a low load factor so the overwrite SETs
// stay on the cuckoo fast path in both variants. The batch=1 and batch=4
// rows price the batched path where a small-batch cutoff would have sent
// reads down the per-key loop.
func BenchmarkSearchBatch(b *testing.B) {
	val := bytes.Repeat([]byte{0xcd}, benchValSize)
	for _, n := range []int{1, 4, 8, 32, 128, 512} {
		b.Run(fmt.Sprintf("wide/batch=%d", n), func(b *testing.B) {
			s, keys, ringIdx := benchFixture(b)
			batchKeys := make([][]byte, 0, n)
			vlo := make([]int32, n)
			vhi := make([]int32, n)
			vals := make([]byte, 0, n*(benchValSize+8))
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for i := 0; i < b.N; i += n {
				batchKeys = batchKeys[:0]
				for j := 0; j < n; j++ {
					k := keys[ringIdx[(pos+j)&(benchRing-1)]]
					if j%20 == 19 { // the workload's 5% SETs, scalar in both variants
						if _, _, err := s.Set(k, val); err != nil {
							b.Fatal(err)
						}
					} else {
						batchKeys = append(batchKeys, k)
					}
				}
				out, _ := s.GetBatch(batchKeys, vals[:0], vlo[:len(batchKeys)], vhi[:len(batchKeys)])
				vals = out
				pos += n
			}
		})
		b.Run(fmt.Sprintf("scalar/batch=%d", n), func(b *testing.B) {
			s, keys, ringIdx := benchFixture(b)
			dst := make([]byte, 0, benchValSize+8)
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for i := 0; i < b.N; i += n {
				for j := 0; j < n; j++ {
					k := keys[ringIdx[(pos+j)&(benchRing-1)]]
					if j%20 == 19 {
						if _, _, err := s.Set(k, val); err != nil {
							b.Fatal(err)
						}
					} else {
						v, _ := s.GetInto(k, dst[:0])
						dst = v
					}
				}
				pos += n
			}
		})
	}
}

// BenchmarkReadBatchUniform prices the batched read at the serving shape of
// the RESP GET workload with the server's defaults: 1 Mi K8/V8 keys in a
// 256 MiB store, uniform keys, batches of 256 GETs whose keys are
// sub-slices of one frame-like buffer (as the front end parses them), so the
// harness itself adds no cold key headers. "staged" is what the default plan
// runs (SearchBatch, then ReadCandidatesBatch on the candidates); "fused" is
// GetBatch. ns/op is per GET.
func BenchmarkReadBatchUniform(b *testing.B) { benchReadBatch(b, readBatchPop) }

// BenchmarkReadBatchMiss is BenchmarkReadBatchUniform with keys drawn over
// twice the population, so about half the GETs miss: it prices the miss
// proof, where a key with no candidate probes both its buckets.
func BenchmarkReadBatchMiss(b *testing.B) { benchReadBatch(b, 2*readBatchPop) }

const readBatchPop = 1 << 20

var (
	readBatchOnce sync.Once
	readBatchSt   *Store
)

// benchReadBatch runs the staged and fused batched reads over uniform keys
// drawn from [0, span); keys below readBatchPop are stored.
func benchReadBatch(b *testing.B, span uint64) {
	const (
		batch = 256
		kw    = 8
	)
	readBatchOnce.Do(func() {
		readBatchSt = New(Config{MemoryBytes: 256 << 20, Seed: 1})
		var key [kw]byte
		for i := 0; i < readBatchPop; i++ {
			binary.LittleEndian.PutUint64(key[:], uint64(i))
			if _, _, err := readBatchSt.Set(key[:], key[:]); err != nil {
				panic(err)
			}
		}
	})
	s := readBatchSt
	frame := make([]byte, batch*kw)
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = frame[i*kw : (i+1)*kw : (i+1)*kw]
	}
	rng := rand.New(rand.NewPCG(3, 5))
	// fill draws a batch and returns how many of its keys are stored.
	fill := func() (want int) {
		for i := range keys {
			k := rng.Uint64N(span)
			if k < readBatchPop {
				want++
			}
			binary.LittleEndian.PutUint64(keys[i], k)
		}
		return want
	}
	vlo, vhi := make([]int32, batch), make([]int32, batch)
	vals := make([]byte, 0, batch*kw)
	// measure runs read once untimed, so the scratch pool and the arenas are
	// warm and even a -benchtime=8x smoke reports steady-state allocations,
	// then once per batch of b.N GETs.
	measure := func(b *testing.B, read func() int) {
		fill()
		read()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			want := fill()
			if hits := read(); hits != want {
				b.Fatalf("hits = %d, want %d", hits, want)
			}
		}
	}
	b.Run("staged", func(b *testing.B) {
		lo, hi := make([]int32, batch), make([]int32, batch)
		cands := make([]cuckoo.Location, 0, batch*cuckoo.MaxCandidates)
		measure(b, func() (hits int) {
			cands = s.SearchBatch(keys, cands[:0], lo, hi)
			vals, hits = s.ReadCandidatesBatch(keys, cands, lo, hi, vals[:0], vlo, vhi)
			return hits
		})
	})
	b.Run("fused", func(b *testing.B) {
		measure(b, func() (hits int) {
			vals, hits = s.GetBatch(keys, vals[:0], vlo, vhi)
			return hits
		})
	})
}
