package task

import (
	"math"
	"reflect"
	"testing"
)

func testProfile() Profile {
	return Profile{
		N:                10000,
		GetRatio:         0.95,
		KeySize:          16,
		ValueSize:        64,
		Population:       1 << 20,
		EvictionRate:     1,
		AvgInsertBuckets: 2,
		SearchProbes:     1.5,
		WireQueryBytes:   30,
		RVInstr:          1800,
		SDInstr:          1800,
	}
}

func TestTaskStrings(t *testing.T) {
	want := map[ID]string{
		RV: "RV", PP: "PP", MM: "MM",
		INSearch: "IN.S", INInsert: "IN.I", INDelete: "IN.D",
		KC: "KC", RD: "RD", SC: "SC", WR: "WR", LG: "LG", SD: "SD",
	}
	for id, s := range want {
		if id.String() != s {
			t.Fatalf("%d.String() = %s, want %s", id, id.String(), s)
		}
	}
	if ID(99).String() != "task(99)" {
		t.Fatal("unknown task string")
	}
}

func TestAllOrderAndCount(t *testing.T) {
	all := All()
	if len(all) != NumTasks || NumTasks != 12 {
		t.Fatalf("NumTasks = %d, tasks = %d", NumTasks, len(all))
	}
	if all[0] != RV || all[len(all)-1] != SD {
		t.Fatal("pipeline order wrong at endpoints")
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatal("All() not in pipeline order")
		}
	}
}

func TestAffinityPartners(t *testing.T) {
	if p, ok := AffinityPartner(RD); !ok || p != KC {
		t.Fatal("RD's partner should be KC (paper §III-B1)")
	}
	if p, ok := AffinityPartner(WR); !ok || p != RD {
		t.Fatal("WR's partner should be RD")
	}
	for _, id := range []ID{RV, PP, MM, INSearch, INInsert, INDelete, KC, SC, SD} {
		if _, ok := AffinityPartner(id); ok {
			t.Fatalf("%v should have no affinity partner", id)
		}
	}
}

func TestCoverage(t *testing.T) {
	p := testProfile()
	if Coverage(RV, p) != 1 || Coverage(PP, p) != 1 || Coverage(SD, p) != 1 {
		t.Fatal("packet-path tasks cover all queries")
	}
	if got := Coverage(INSearch, p); got != 0.95 {
		t.Fatalf("Search coverage = %v", got)
	}
	if got := Coverage(INInsert, p); got != 0.05000000000000004 && (got < 0.049 || got > 0.051) {
		t.Fatalf("Insert coverage = %v", got)
	}
	// Delete coverage = setRatio × evictionRate.
	p.EvictionRate = 0.5
	if got := Coverage(INDelete, p); got < 0.024 || got > 0.026 {
		t.Fatalf("Delete coverage = %v", got)
	}
	if got := Coverage(ID(99), p); got != 0 {
		t.Fatal("unknown task coverage should be 0")
	}
}

func TestDemandQueriesScaleWithCoverage(t *testing.T) {
	p := testProfile()
	dSearch := ForTask(INSearch, p, Placement{})
	dInsert := ForTask(INInsert, p, Placement{})
	if dSearch.Queries != 9500 || dInsert.Queries != 500 {
		t.Fatalf("queries = %d / %d, want 9500 / 500", dSearch.Queries, dInsert.Queries)
	}
}

func TestRDAffinityReducesMemoryAccesses(t *testing.T) {
	p := testProfile()
	apart := ForTask(RD, p, Placement{WithAffinityPartner: false, OnCPU: true})
	together := ForTask(RD, p, Placement{WithAffinityPartner: true, OnCPU: true})
	if together.MemAccesses >= apart.MemAccesses {
		t.Fatalf("co-located RD should have fewer random accesses: %v vs %v",
			together.MemAccesses, apart.MemAccesses)
	}
	if together.MemAccesses != 0 {
		t.Fatalf("co-located RD random accesses = %v, want 0 (object in cache)", together.MemAccesses)
	}
	// Total touched lines are conserved (they just become cache accesses).
	if together.CacheAccesses <= apart.CacheAccesses {
		t.Fatal("co-located RD should convert memory accesses into cache accesses")
	}
}

func TestWRSeparationDoublesStreaming(t *testing.T) {
	p := testProfile()
	apart := ForTask(WR, p, Placement{WithAffinityPartner: false})
	together := ForTask(WR, p, Placement{WithAffinityPartner: true})
	if apart.SeqBytes <= together.SeqBytes {
		t.Fatal("separated WR must stream the staging buffer too (paper §III-A)")
	}
}

func TestKeyPopularityCachePortion(t *testing.T) {
	p := testProfile()
	p.CacheHitPortion = 0.6
	cpu := ForTask(KC, p, Placement{OnCPU: true})
	gpu := ForTask(KC, p, Placement{OnCPU: false})
	if cpu.MemAccesses >= gpu.MemAccesses {
		t.Fatal("CPU cache-hit portion should cut random accesses")
	}
	if got := cpu.MemAccesses; got < 0.39 || got > 0.41 {
		t.Fatalf("CPU KC random accesses = %v, want 0.4", got)
	}
	// Conservation: what left MemAccesses arrived in CacheAccesses.
	totalCPU := cpu.MemAccesses + cpu.CacheAccesses
	totalGPU := gpu.MemAccesses + gpu.CacheAccesses
	if diff := totalCPU - totalGPU; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("access conservation violated: %v vs %v", totalCPU, totalGPU)
	}
}

func TestHotHitPortionCutsSearchAccesses(t *testing.T) {
	p := testProfile()
	p.HotHitPortion = 0.5
	cpu := ForTask(INSearch, p, Placement{OnCPU: true})
	base := ForTask(INSearch, testProfile(), Placement{OnCPU: true})
	if cpu.MemAccesses >= base.MemAccesses {
		t.Fatal("hot-hit portion should cut IN(Search) random accesses on the CPU")
	}
	if want := base.MemAccesses * 0.5; math.Abs(cpu.MemAccesses-want) > 1e-9 {
		t.Fatalf("IN(Search) random accesses = %v, want %v", cpu.MemAccesses, want)
	}
	// Conservation: the skipped probes became cache accesses, not free work.
	if diff := (cpu.MemAccesses + cpu.CacheAccesses) - (base.MemAccesses + base.CacheAccesses); math.Abs(diff) > 1e-9 {
		t.Fatalf("access conservation violated by %v", diff)
	}
	// GPU-stage IN still probes: the side table lives in CPU cache.
	gpu := ForTask(INSearch, p, Placement{OnCPU: false})
	if gpu.MemAccesses != base.MemAccesses {
		t.Fatalf("GPU IN(Search) accesses moved: %v, want %v", gpu.MemAccesses, base.MemAccesses)
	}
	// Other CPU tasks are untouched (KC/RD savings belong to CacheHitPortion).
	kc := ForTask(KC, p, Placement{OnCPU: true})
	kcBase := ForTask(KC, testProfile(), Placement{OnCPU: true})
	if kc.MemAccesses != kcBase.MemAccesses {
		t.Fatal("HotHitPortion must not double-count into KC")
	}
}

func TestSearchVsUpdateCosts(t *testing.T) {
	// Insert touches more buckets than Search (displacement), Delete equals
	// Search probes — matches §IV-B.
	p := testProfile()
	s := ForTask(INSearch, p, Placement{})
	i := ForTask(INInsert, p, Placement{})
	del := ForTask(INDelete, p, Placement{})
	if i.MemAccesses <= s.MemAccesses {
		t.Fatal("Insert should touch more buckets than Search")
	}
	if del.MemAccesses != s.MemAccesses {
		t.Fatal("Delete probes should equal Search probes")
	}
}

func TestLargerObjectsCostMore(t *testing.T) {
	small := testProfile()
	big := testProfile()
	big.KeySize, big.ValueSize = 128, 1024
	dS := ForTask(RD, small, Placement{OnCPU: true})
	dB := ForTask(RD, big, Placement{OnCPU: true})
	if dB.CacheAccesses <= dS.CacheAccesses {
		t.Fatal("bigger objects must touch more lines")
	}
	wS := ForTask(WR, small, Placement{})
	wB := ForTask(WR, big, Placement{})
	if wB.SeqBytes <= wS.SeqBytes {
		t.Fatal("bigger values must stream more bytes")
	}
}

func TestObjectLines(t *testing.T) {
	if objectLines(0) != 0 {
		t.Fatal("zero bytes → zero lines")
	}
	if objectLines(1) != 1.015625 && objectLines(1) < 1 { // (1+63)/64 = 1
		t.Fatalf("1 byte → %v lines", objectLines(1))
	}
	if objectLines(64) != (64.0+63.0)/64.0 {
		t.Fatalf("64 bytes → %v", objectLines(64))
	}
	if objectLines(128) <= objectLines(64) {
		t.Fatal("lines must grow with size")
	}
}

func TestScanCoverage(t *testing.T) {
	p := testProfile()
	// No scans: SC covers nothing and the write split is untouched — the
	// pre-SCAN planner behavior is bit-identical at ScanRatio 0.
	if got := Coverage(SC, p); got != 0 {
		t.Fatalf("SC coverage without scans = %v", got)
	}
	base := Coverage(INInsert, p)
	p.ScanRatio = 0.10
	p.GetRatio = 0.85
	if got := Coverage(SC, p); got != 0.10 {
		t.Fatalf("SC coverage = %v, want 0.10", got)
	}
	// Writes are 1 − gets − scans: same 5% as before the scan mix shifted.
	if got := Coverage(INInsert, p); math.Abs(got-base) > 1e-9 {
		t.Fatalf("Insert coverage = %v, want %v", got, base)
	}
	// Degenerate profiles must not go negative.
	p.GetRatio, p.ScanRatio = 0.9, 0.2
	if got := Coverage(MM, p); got != 0 {
		t.Fatalf("MM coverage clamped = %v", got)
	}
}

func TestScanDemandIsBandwidthBound(t *testing.T) {
	p := testProfile()
	p.GetRatio, p.ScanRatio = 0.80, 0.15
	p.ScanEntries, p.ScanEntryBytes = 64, 86
	sc := ForTask(SC, p, Placement{OnCPU: true})
	if sc.Queries != 1500 {
		t.Fatalf("SC queries = %d, want 1500", sc.Queries)
	}
	// The defining property of the new regime: SC streams far more bytes
	// than any point task — its cost is a sequential-bandwidth term, not a
	// random-probe term.
	get := ForTask(RD, p, Placement{OnCPU: true})
	if sc.SeqBytes <= 10*get.SeqBytes {
		t.Fatalf("scan SeqBytes = %v, not bandwidth-dominated vs RD's %v", sc.SeqBytes, get.SeqBytes)
	}
	if sc.SeqBytes < 2*p.ScanEntries*p.ScanEntryBytes {
		t.Fatalf("scan SeqBytes = %v, want ≥ %v", sc.SeqBytes, 2*p.ScanEntries*p.ScanEntryBytes)
	}
	// Random accesses stay logarithmic-plus-linear in entries, far below the
	// stream term's line count: the opposite shape of a cuckoo probe.
	if sc.MemAccesses >= sc.SeqBytes/lineBytes {
		t.Fatalf("scan random accesses %v should sit below streamed lines %v",
			sc.MemAccesses, sc.SeqBytes/lineBytes)
	}
	// Bigger ranges stream more.
	p2 := p
	p2.ScanEntries = 256
	if sc2 := ForTask(SC, p2, Placement{OnCPU: true}); sc2.SeqBytes <= sc.SeqBytes {
		t.Fatal("more entries must stream more bytes")
	}
	// The merge serializes on a GPU wave.
	if sc.GPUSerialFrac <= 0 {
		t.Fatal("SC must carry a GPU serialization penalty")
	}
	// Scan result bytes ride the response path too: WR and SD both grow.
	noScan := p
	noScan.ScanRatio, noScan.ScanEntries, noScan.ScanEntryBytes = 0, 0, 0
	if ForTask(WR, p, Placement{}).SeqBytes <= ForTask(WR, noScan, Placement{}).SeqBytes {
		t.Fatal("WR must stream the scan result share")
	}
	if ForTask(SD, p, Placement{}).SeqBytes <= ForTask(SD, noScan, Placement{}).SeqBytes {
		t.Fatal("SD must stream the scan result share")
	}
}

func TestRVSDUseProfiledUnitCosts(t *testing.T) {
	p := testProfile()
	rv := ForTask(RV, p, Placement{})
	sd := ForTask(SD, p, Placement{})
	if rv.Instr != p.RVInstr || sd.Instr != p.SDInstr {
		t.Fatal("RV/SD must use the profiled unit costs (§IV-B)")
	}
}

// TestProfileMergeWeighsEveryField pools a 1-query profile of all-ones into a
// 3-query profile of all-fours: every float field must come out at the
// query-weighted 3.25, so a field added to Profile but not to Merge fails.
func TestProfileMergeWeighsEveryField(t *testing.T) {
	fill := func(n int, f float64) Profile {
		var p Profile
		v := reflect.ValueOf(&p).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Float64 {
				v.Field(i).SetFloat(f)
			}
		}
		p.N, p.Population = n, uint64(n)
		return p
	}
	m := fill(1, 1).Merge(fill(3, 4))
	v := reflect.ValueOf(m)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && math.Abs(f.Float()-3.25) > 1e-12 {
			t.Errorf("%s = %v, want 3.25", v.Type().Field(i).Name, f.Float())
		}
	}
	if m.N != 4 || m.Population != 3 {
		t.Fatalf("N = %d, Population = %d; want 4 and the newer 3", m.N, m.Population)
	}
	if got := (Profile{}).Merge(Profile{GetRatio: 0.5}); got.GetRatio != 0.5 {
		t.Fatalf("merging two empty profiles lost the newer one: %+v", got)
	}
}
