// Package task defines the fine-grained task decomposition of key-value
// query processing (paper §III-A): the eight tasks RV, PP, MM, IN, KC, RD,
// WR, SD, with IN further split into independently placeable Search, Insert
// and Delete operations (§III-B2). This codebase adds two tasks beyond the
// paper's set: LG (write-ahead logging, durability tier) and SC (ordered-
// index range scans, a sequential-bandwidth-bound profile the planner can
// place independently of the random-access point probes).
//
// For each task the package computes its per-batch resource demands
// (instructions, random memory accesses, cache accesses, sequential bytes)
// from a workload profile. These demand counts are shared facts used by both
// the ground-truth APU simulator and DIDO's closed-form cost model — the two
// then price the same demands differently (see DESIGN.md §2, honesty rule).
package task

import "fmt"

// ID identifies one assignable task.
type ID int

// The assignable tasks, in pipeline order. INSearch/INInsert/INDelete jointly
// form the paper's IN task but are separately placeable.
const (
	RV ID = iota // receive packets
	PP           // packet processing: UDP + query parsing
	MM           // memory management: allocation + eviction
	INSearch
	INInsert
	INDelete
	KC           // key comparison
	RD           // read key-value object
	SC           // ordered-index range scan: snapshot + merge + value copies
	WR           // write response packet
	LG           // append write-ahead log records (durability tier)
	SD           // send responses
	NumTasks int = iota
)

// String implements fmt.Stringer using the paper's abbreviations.
func (id ID) String() string {
	switch id {
	case RV:
		return "RV"
	case PP:
		return "PP"
	case MM:
		return "MM"
	case INSearch:
		return "IN.S"
	case INInsert:
		return "IN.I"
	case INDelete:
		return "IN.D"
	case KC:
		return "KC"
	case RD:
		return "RD"
	case SC:
		return "SC"
	case WR:
		return "WR"
	case LG:
		return "LG"
	case SD:
		return "SD"
	default:
		return fmt.Sprintf("task(%d)", int(id))
	}
}

// All returns every task in pipeline order.
func All() []ID {
	return []ID{RV, PP, MM, INSearch, INInsert, INDelete, KC, RD, SC, WR, LG, SD}
}

// AffinityPartner returns the upstream task whose co-location in the same
// pipeline stage makes this task substantially cheaper (paper §III-B1 "task
// affinity"): KC fetches the object into cache, making a co-located RD nearly
// free; RD leaves the value in cache for a co-located WR.
func AffinityPartner(id ID) (ID, bool) {
	switch id {
	case RD:
		return KC, true
	case WR:
		return RD, true
	default:
		return 0, false
	}
}

// Profile captures the workload characteristics the demand model needs. The
// workload profiler measures these per batch (paper §III-A: "GET/SET ratio
// and average key-value size ... implemented with only a few counters").
type Profile struct {
	// N is the batch size in queries.
	N int
	// GetRatio is the fraction of GETs.
	GetRatio float64
	// KeySize and ValueSize are average object sizes in bytes.
	KeySize, ValueSize float64
	// Skew is the estimated Zipf exponent of key popularity.
	Skew float64
	// Population is the number of live objects.
	Population uint64
	// EvictionRate is evictions per SET (≈1 at steady-state full memory,
	// §II-C2).
	EvictionRate float64
	// AvgInsertBuckets is the measured average buckets touched per cuckoo
	// Insert (§IV-B).
	AvgInsertBuckets float64
	// SearchProbes is the analytic probe count per Search (1.5 for 2-way
	// cuckoo).
	SearchProbes float64
	// WireQueryBytes is the average encoded query size on the wire.
	WireQueryBytes float64
	// RVInstr, SDInstr and RVUnitNanos, SDUnitNanos come from the network
	// cost profile (netsim); RV/SD are estimated by unit-cost profiling
	// (§IV-B), not Eq 1.
	RVInstr, SDInstr         float64
	RVUnitNanos, SDUnitNanos float64
	// CacheHitPortion is P: the portion of object accesses served by the
	// CPU cache thanks to key-popularity skew (§IV-B). The cost model
	// computes it analytically from Zipf; the simulator measures it with a
	// real LRU cache.
	CacheHitPortion float64
	// LGRecordsPerQuery, LGSeqBytes and LGUnitNanos describe the durability
	// tier's logging task (LG): WAL records appended per query (0 when no
	// WAL is attached, which zeroes LG's coverage everywhere), average
	// framed bytes per record, and the measured per-record cost of the
	// group-commit append (unit-cost profiled like RV/SD, since most of LG
	// is syscall + fsync time no instruction model can see).
	LGRecordsPerQuery, LGSeqBytes, LGUnitNanos float64
	// ScanRatio is the fraction of queries that are ordered-index range
	// scans (SC); GetRatio counts point GETs only, so writes are
	// 1 − GetRatio − ScanRatio. ScanEntries is the average entry count one
	// scan returns and ScanEntryBytes the average encoded bytes per
	// returned entry — together they make SC's demand dominated by a
	// sequential-bandwidth term (ScanEntries × ScanEntryBytes streamed per
	// scan), the opposite shape of a cuckoo point probe's random accesses.
	ScanRatio, ScanEntries, ScanEntryBytes float64
}

// Merge pools q into p, weighted by query count: N becomes p.N + q.N and
// every rate or size field the query-weighted mean of the two. Population is
// a level, not a rate, so it takes q's (the newer) value.
func (p Profile) Merge(q Profile) Profile {
	n := p.N + q.N
	if n <= 0 {
		return q
	}
	w := float64(q.N) / float64(n)
	mix := func(a, b float64) float64 { return a + (b-a)*w }
	return Profile{
		N:                 n,
		GetRatio:          mix(p.GetRatio, q.GetRatio),
		KeySize:           mix(p.KeySize, q.KeySize),
		ValueSize:         mix(p.ValueSize, q.ValueSize),
		Skew:              mix(p.Skew, q.Skew),
		Population:        q.Population,
		EvictionRate:      mix(p.EvictionRate, q.EvictionRate),
		AvgInsertBuckets:  mix(p.AvgInsertBuckets, q.AvgInsertBuckets),
		SearchProbes:      mix(p.SearchProbes, q.SearchProbes),
		WireQueryBytes:    mix(p.WireQueryBytes, q.WireQueryBytes),
		RVInstr:           mix(p.RVInstr, q.RVInstr),
		SDInstr:           mix(p.SDInstr, q.SDInstr),
		RVUnitNanos:       mix(p.RVUnitNanos, q.RVUnitNanos),
		SDUnitNanos:       mix(p.SDUnitNanos, q.SDUnitNanos),
		CacheHitPortion:   mix(p.CacheHitPortion, q.CacheHitPortion),
		LGRecordsPerQuery: mix(p.LGRecordsPerQuery, q.LGRecordsPerQuery),
		LGSeqBytes:        mix(p.LGSeqBytes, q.LGSeqBytes),
		LGUnitNanos:       mix(p.LGUnitNanos, q.LGUnitNanos),
		ScanRatio:         mix(p.ScanRatio, q.ScanRatio),
		ScanEntries:       mix(p.ScanEntries, q.ScanEntries),
		ScanEntryBytes:    mix(p.ScanEntryBytes, q.ScanEntryBytes),
	}
}

// Coverage returns the fraction of the batch a task applies to: index
// updates apply to SETs (and their evictions), object reads to GETs, the
// packet path to everything.
func Coverage(id ID, p Profile) float64 {
	set := 1 - p.GetRatio - p.ScanRatio
	if set < 0 {
		set = 0
	}
	switch id {
	case RV, PP, SD:
		return 1
	case MM:
		return set
	case INSearch:
		return p.GetRatio
	case INInsert:
		return set
	case INDelete:
		return set * p.EvictionRate
	case KC, RD:
		return p.GetRatio
	case SC:
		return p.ScanRatio
	case WR:
		return 1 // every query gets a response; value-bearing only for GETs
	case LG:
		// Durability: only write-bearing frames produce WAL records (SET/DEL
		// ops plus one REPLY record per tracked frame). Zero without a WAL.
		return p.LGRecordsPerQuery
	default:
		return 0
	}
}

// Demand gives the per-covered-query resource demands of one task.
type Demand struct {
	// Queries is the number of queries in the batch this task processes.
	Queries int
	// Instr is instructions per covered query.
	Instr float64
	// MemAccesses is random (cache-missing) memory accesses per query.
	MemAccesses float64
	// CacheAccesses is cache-served accesses per query.
	CacheAccesses float64
	// SeqBytes is sequentially streamed bytes per query.
	SeqBytes float64
	// GPUSerialFrac is the fraction of the task's memory work that
	// serializes on a GPU (CAS contention + wave divergence); nonzero only
	// for the index update operations (paper Fig 6's mechanism).
	GPUSerialFrac float64
}

// Placement describes the context that modulates a task's demands.
type Placement struct {
	// WithAffinityPartner is true when the task shares a stage with its
	// affinity partner (AffinityPartner), so its object access is served
	// from cache.
	WithAffinityPartner bool
	// OnCPU is true when the task runs on the CPU — the key-popularity
	// cache-hit portion applies only there (the GPU L2 is too small to hold
	// a hot set, §IV-B models CPU caching of frequent objects).
	OnCPU bool
}

// lineBytes is the cache-line granularity the demand model assumes. Both
// devices of the Kaveri use 64-byte lines.
const lineBytes = 64

// objectLines returns how many cache lines an object of size b spans.
func objectLines(b float64) float64 {
	if b <= 0 {
		return 0
	}
	return (b + lineBytes - 1) / lineBytes
}

// ForTask computes the demand of task id for a batch with profile p under
// placement pl. The instruction constants approximate the per-query code
// footprint of each stage in the reference implementation; the memory-access
// counts follow §IV-B.
func ForTask(id ID, p Profile, pl Placement) Demand {
	cover := Coverage(id, p)
	d := Demand{Queries: int(float64(p.N)*cover + 0.5)}
	objBytes := p.KeySize + p.ValueSize
	switch id {
	case RV:
		d.Instr = p.RVInstr
		d.SeqBytes = p.WireQueryBytes
	case PP:
		// Parse op and lengths from the (already resident) frame; a few
		// dozen instructions per query with a streaming touch of the bytes.
		d.Instr = 30 + p.KeySize/16
		d.SeqBytes = p.WireQueryBytes
		d.CacheAccesses = 0.25
	case MM:
		// Allocation: freelist pop + header write + key/value copy into the
		// chunk; eviction bookkeeping on the victim.
		d.Instr = 250
		d.MemAccesses = 1.5 + p.EvictionRate
		d.SeqBytes = objBytes
	case INSearch:
		d.Instr = 90
		d.MemAccesses = p.SearchProbes
	case INInsert:
		d.Instr = 140
		d.MemAccesses = p.AvgInsertBuckets
		// Inserts CAS into buckets and may walk displacement paths; on a
		// GPU the wave stalls on its slowest lane and contended CAS
		// serializes (§II-C2 / Fig 6).
		d.GPUSerialFrac = 0.20
	case INDelete:
		d.Instr = 100
		d.MemAccesses = p.SearchProbes
		d.GPUSerialFrac = 0.20
	case KC:
		// Fetch the object header+key (one random access) and compare.
		d.Instr = 40 + p.KeySize/8
		d.MemAccesses = 1
		d.CacheAccesses = objectLines(p.KeySize)
	case RD:
		// Read the whole object. With KC co-located the object is already
		// cached (task affinity, §III-B1); otherwise pay the random access.
		d.Instr = 30 + objBytes/16
		if pl.WithAffinityPartner {
			d.CacheAccesses = objectLines(objBytes)
		} else {
			d.MemAccesses = 1
			d.CacheAccesses = objectLines(objBytes) - 1
		}
	case SC:
		// Ordered range scan: one snapshot load, a root-to-leaf descent per
		// shard tree (random accesses ∝ log₂ population), then a sequential
		// merge that touches one tree node per returned entry and streams the
		// entry's key+value bytes through the seqlock read into the result
		// block. The stream term dominates for any realistic entry count —
		// scans are bandwidth-bound where probes are latency-bound, which is
		// exactly the regime split the planner exploits when placing SC.
		scanBytes := p.ScanEntries * p.ScanEntryBytes
		d.Instr = 200 + 25*p.ScanEntries + scanBytes/16
		depth := 1.0
		for n := p.Population; n > 1; n >>= 1 {
			depth++
		}
		d.MemAccesses = depth + p.ScanEntries // descent + one node hop per entry
		d.CacheAccesses = 2 * p.ScanEntries   // iterator stack + entry header writes
		d.SeqBytes = 2 * scanBytes            // slab value read + result-block write
		// The N-way merge advances one entry at a time: a GPU wave's lanes
		// serialize on the shared cursor (same mechanism as Fig 6's CAS).
		d.GPUSerialFrac = 0.35
	case WR:
		// Build the response. GETs carry the value: read it (from cache if
		// RD co-located, else from the staging buffer sequentially) and
		// stream it into the response frame. Scan result blocks (already
		// assembled by SC in the response arena) are streamed once more into
		// the frame.
		valueShare := p.GetRatio * p.ValueSize
		scanShare := p.ScanRatio * p.ScanEntries * p.ScanEntryBytes
		d.Instr = 120 + (valueShare+scanShare)/16
		if pl.WithAffinityPartner {
			d.CacheAccesses = objectLines(valueShare)
			d.SeqBytes = valueShare + scanShare // response write only
		} else {
			d.SeqBytes = 2*valueShare + scanShare // staging read + response write
		}
	case LG:
		// Encode + CRC one WAL record and stream it into the commit buffer.
		// The dominant cost (write syscall + shared fsync) is measured, not
		// modeled: the cost model prices LG from LGUnitNanos like RV/SD.
		d.Instr = 150 + p.LGSeqBytes/16
		d.SeqBytes = p.LGSeqBytes
	case SD:
		d.Instr = p.SDInstr
		d.SeqBytes = p.GetRatio*p.ValueSize + p.ScanRatio*p.ScanEntries*p.ScanEntryBytes + 16
	}
	// Key-popularity: on the CPU a portion P of random object accesses hit
	// the cache (§IV-B). Applies to object-touching tasks only.
	if pl.OnCPU && (id == KC || id == RD) && p.CacheHitPortion > 0 {
		hit := p.CacheHitPortion
		moved := d.MemAccesses * hit
		d.MemAccesses -= moved
		d.CacheAccesses += moved
	}
	// On the GPU, object bytes never fit its small L2 across a wavefront's
	// 64 lanes: line-granularity "cache" accesses of the object tasks are
	// really random memory accesses there. This is why reading large
	// key-value objects on the GPU loses (§V-C: the CPU prefetches large
	// objects well, so DIDO keeps Mega-KV's shape for K32/K128).
	if !pl.OnCPU && (id == KC || id == RD || id == WR) {
		d.MemAccesses += d.CacheAccesses
		d.CacheAccesses = 0
	}
	return d
}
