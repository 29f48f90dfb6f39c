package store

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/zipf"
)

// Scan benchmark fixture, at udp-scan-mix's shape: 2^20 K16/V64 keys in a
// 256 MiB ordered store, whose tree the fixture builds, and a ring of SCAN
// starts drawn zipf(0.99) from the population. A key is its rank in
// little-endian bytes padded to 16, as the end-to-end benchmark's are, so
// the tree's eight-byte prefixes tell keys apart and a scan's neighbours sit
// on random slab chunks.
var (
	scanBenchOnce   sync.Once
	scanBenchSt     *Store
	scanBenchStarts [][]byte
)

func scanBenchFixture() (*Store, [][]byte) {
	scanBenchOnce.Do(func() {
		s := New(Config{MemoryBytes: 256 << 20, IndexEntries: 1 << 21, Seed: 11, Ordered: true})
		key := func(rank uint64) []byte {
			k := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), rank)
			return append(k, "-scan-ke"...)
		}
		val := bytes.Repeat([]byte{0xcd}, benchValSize)
		for r := uint64(0); r < benchPop; r++ {
			if _, _, err := s.Set(key(r), val); err != nil {
				panic(err)
			}
		}
		s.Scan(nil, nil, 1, func(k, v []byte) bool { return true }) // builds the tree
		g := zipf.NewGenerator(benchPop, 0.99, 7)
		scanBenchStarts = make([][]byte, benchRing)
		for i := range scanBenchStarts {
			scanBenchStarts[i] = key(g.Next() - 1)
		}
		scanBenchSt = s
	})
	return scanBenchSt, scanBenchStarts
}

// BenchmarkScanBatch prices the SC task as the live pipeline runs it on
// udp-scan-mix: a batch of 16 SCANs of limit 16 on one Scanner per batch,
// in one ScanBatch call. ns/op is per scan; every scan must return 16
// entries.
func BenchmarkScanBatch(b *testing.B) {
	const batch, limit = 16, 16
	s, starts := scanBenchFixture()
	ends := make([][]byte, batch)
	limits := make([]int, batch)
	for i := range limits {
		limits[i] = limit
	}
	entries := 0
	fn := func(_ int, k, v []byte) bool { entries++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		at := i % benchRing
		s.NewScanner().ScanBatch(starts[at:at+batch], ends, limits, fn)
	}
	b.StopTimer()
	if want := (b.N + batch - 1) / batch * batch * limit; entries != want {
		b.Fatalf("scans returned %d entries, want %d", entries, want)
	}
}
