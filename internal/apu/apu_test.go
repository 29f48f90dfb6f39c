package apu

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestKaveriPlatformShape(t *testing.T) {
	p := KaveriPlatform()
	if p.CPU.Cores != 4 || p.GPU.Cores != 8 || p.GPU.LanesPerCore != 64 {
		t.Fatalf("Kaveri core counts wrong: %+v", p)
	}
	if p.CPU.ClockHz != 3.7e9 || p.GPU.ClockHz != 720e6 {
		t.Fatal("Kaveri clocks wrong")
	}
	if p.Memory.TotalBytes != 1908<<20 {
		t.Fatal("shared memory size should be 1908 MB per paper §V-A")
	}
	if p.GPU.WavefrontWidth() != 64 || p.CPU.WavefrontWidth() != 1 {
		t.Fatal("wavefront widths wrong")
	}
	if p.GPU.TotalLanes() != 512 {
		t.Fatalf("GPU lanes = %d, want 512", p.GPU.TotalLanes())
	}
}

func TestCycleTime(t *testing.T) {
	d := DeviceSpec{ClockHz: 1e9}
	if got := d.CycleTime(); got != time.Nanosecond {
		t.Fatalf("cycle = %v, want 1ns", got)
	}
}

func TestCPUTimeScalesWithBatch(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	w := Work{N: 1000, InstrPerQuery: 100, MemAccessesPerQuery: 2}
	t1 := m.TaskTime(CPU, w, 0)
	w.N = 2000
	t2 := m.TaskTime(CPU, w, 0)
	ratio := float64(t2) / float64(t1)
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("CPU time should scale linearly with N: ratio %v", ratio)
	}
}

func TestCPUParallelismSpeedsUp(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	w := Work{N: 1000, InstrPerQuery: 100, MemAccessesPerQuery: 2, Parallelism: 1}
	t1 := m.TaskTime(CPU, w, 0)
	w.Parallelism = 4
	t4 := m.TaskTime(CPU, w, 0)
	if float64(t1)/float64(t4) < 3.9 {
		t.Fatalf("4 cores should be ~4x faster: %v vs %v", t1, t4)
	}
	// Parallelism beyond device cores clamps.
	w.Parallelism = 100
	tBig := m.TaskTime(CPU, w, 0)
	if tBig != t4 {
		t.Fatalf("overclaimed parallelism should clamp: %v vs %v", tBig, t4)
	}
}

func TestGPUSmallBatchInefficiency(t *testing.T) {
	// Fig 6's mechanism: per-op cost on tiny batches far exceeds large ones.
	m := NewModel(KaveriPlatform(), 0, 1)
	w := Work{InstrPerQuery: 50, MemAccessesPerQuery: 3}
	w.N = 64
	perOpSmall := m.TaskTime(GPU, w, 0).Seconds() / 64
	w.N = 40960
	perOpBig := m.TaskTime(GPU, w, 0).Seconds() / 40960
	if perOpSmall < 5*perOpBig {
		t.Fatalf("small batch per-op %v should be >>5x large-batch %v", perOpSmall, perOpBig)
	}
	// And the efficiency helper agrees.
	w.N = 64
	effSmall := m.GPUEfficiency(w)
	w.N = 40960
	effBig := m.GPUEfficiency(w)
	if effSmall >= effBig {
		t.Fatalf("efficiency should grow with batch: %v vs %v", effSmall, effBig)
	}
	if effBig < 0.5 || effBig > 1 {
		t.Fatalf("large-batch efficiency = %v, want near 1", effBig)
	}
}

func TestGPULatencyHidingBeatsCPUOnRandomAccessAtScale(t *testing.T) {
	// The premise of Mega-KV: index operations (random-access heavy, light
	// compute) run faster on the GPU for large batches.
	m := NewModel(KaveriPlatform(), 0, 1)
	w := Work{N: 20000, InstrPerQuery: 60, MemAccessesPerQuery: 1.5}
	cpu := m.TaskTime(CPU, w, 0)
	gpu := m.TaskTime(GPU, w, 0)
	if gpu >= cpu {
		t.Fatalf("GPU (%v) should beat CPU (%v) on large random-access batches", gpu, cpu)
	}
}

func TestCPUBeatsGPUOnTinyBatches(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	w := Work{N: 100, InstrPerQuery: 60, MemAccessesPerQuery: 1.5}
	cpu := m.TaskTime(CPU, w, 0)
	gpu := m.TaskTime(GPU, w, 0)
	if cpu >= gpu {
		t.Fatalf("CPU (%v) should beat GPU (%v) on tiny batches", cpu, gpu)
	}
}

func TestZeroWork(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	if m.TaskTime(CPU, Work{}, 0) != 0 || m.TaskTime(GPU, Work{}, 0) != 0 {
		t.Fatal("zero work should take zero time")
	}
	if m.BandwidthDemand(CPU, Work{}) != 0 {
		t.Fatal("zero work should demand zero bandwidth")
	}
	if m.GPUEfficiency(Work{}) != 0 {
		t.Fatal("zero work efficiency should be 0")
	}
}

func TestInterferenceSlowsDown(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	w := Work{N: 5000, InstrPerQuery: 100, MemAccessesPerQuery: 2}
	alone := m.TaskTime(CPU, w, 0)
	contended := m.TaskTime(CPU, w, 10e9)
	if contended <= alone {
		t.Fatalf("interference should slow the CPU: %v vs %v", contended, alone)
	}
}

func TestMuProperties(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	if mu := m.Mu(CPU, 1e9, 0); mu != 1 {
		t.Fatalf("µ with idle other device = %v, want 1", mu)
	}
	// GPU hurts CPU more than CPU hurts GPU (paper cites [14]).
	muCPU := m.Mu(CPU, 5e9, 5e9)
	muGPU := m.Mu(GPU, 5e9, 5e9)
	if muCPU <= muGPU {
		t.Fatalf("µ asymmetry wrong: CPU %v should exceed GPU %v", muCPU, muGPU)
	}
	// Saturation kicks in past peak bandwidth.
	peak := m.Platform.Memory.BandwidthBytesPerSec
	if m.Mu(CPU, peak, peak) <= m.Mu(CPU, peak/4, peak/4) {
		t.Fatal("saturation should increase µ")
	}
	// Monotone in other-device traffic.
	f := func(a, b uint32) bool {
		bw1 := float64(a%100) * 1e8
		bw2 := bw1 + float64(b%100)*1e8
		return m.Mu(CPU, 1e9, bw2) >= m.Mu(CPU, 1e9, bw1)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseIsBoundedAndReproducible(t *testing.T) {
	w := Work{N: 1000, InstrPerQuery: 100, MemAccessesPerQuery: 2}
	base := NewModel(KaveriPlatform(), 0, 7).TaskTime(CPU, w, 0)
	m1 := NewModel(KaveriPlatform(), 0.05, 7)
	m2 := NewModel(KaveriPlatform(), 0.05, 7)
	for i := 0; i < 100; i++ {
		d1 := m1.TaskTime(CPU, w, 0)
		d2 := m2.TaskTime(CPU, w, 0)
		if d1 != d2 {
			t.Fatal("same-seed models disagree")
		}
		rel := math.Abs(float64(d1)-float64(base)) / float64(base)
		if rel > 0.051 {
			t.Fatalf("noise %v exceeds amplitude", rel)
		}
	}
}

func TestSequentialCheaperThanRandomOnCPU(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	const bytes = 1024
	seq := Work{N: 1000, SeqBytesPerQuery: bytes}
	lines := float64(bytes) / 64
	rnd := Work{N: 1000, MemAccessesPerQuery: lines}
	ts := m.TaskTime(CPU, seq, 0)
	tr := m.TaskTime(CPU, rnd, 0)
	if float64(tr)/float64(ts) < 2 {
		t.Fatalf("sequential read should be much cheaper: seq %v rnd %v", ts, tr)
	}
}

func TestCalibrateInterferenceTable(t *testing.T) {
	m := NewModel(KaveriPlatform(), 0, 1)
	tbl := CalibrateInterference(m, 8)
	if len(tbl.Demands) != 8 {
		t.Fatalf("levels = %d", len(tbl.Demands))
	}
	// Exact grid points round-trip (no interpolation error at nodes).
	for i, cbw := range tbl.Demands {
		for j, gbw := range tbl.Demands {
			want := m.Mu(CPU, cbw, gbw)
			got := tbl.Lookup(CPU, cbw, gbw)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("node (%d,%d): lookup %v want %v", i, j, got, want)
			}
		}
	}
	// Interpolated points stay close to the model.
	for _, cbw := range []float64{1.3e9, 7.7e9, 15e9} {
		for _, gbw := range []float64{0.9e9, 9e9, 19e9} {
			want := m.Mu(CPU, cbw, gbw)
			got := tbl.Lookup(CPU, cbw, gbw)
			if math.Abs(got-want)/want > 0.05 {
				t.Fatalf("interp (%g,%g): lookup %v want %v", cbw, gbw, got, want)
			}
		}
	}
	// Clamping beyond the grid.
	top := tbl.Demands[len(tbl.Demands)-1]
	if tbl.Lookup(GPU, 10*top, 10*top) != tbl.Lookup(GPU, top, top) {
		t.Fatal("out-of-grid lookup should clamp")
	}
	if tbl.String() == "" {
		t.Fatal("empty String()")
	}
	// Degenerate calibration level count is raised to 2.
	if tbl2 := CalibrateInterference(m, 1); len(tbl2.Demands) != 2 {
		t.Fatal("levels floor not applied")
	}
}

func TestLRUCacheBasics(t *testing.T) {
	c := NewLRUCache(100)
	if c.Access(1, 40) {
		t.Fatal("first access should miss")
	}
	if !c.Access(1, 40) {
		t.Fatal("second access should hit")
	}
	c.Access(2, 40)
	c.Access(3, 40) // evicts 1 (LRU after 1 was most recently used? order: 1 hit, 2, 3)
	if c.UsedBytes() > 100 {
		t.Fatalf("capacity exceeded: %d", c.UsedBytes())
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.HitRate() <= 0 || c.HitRate() >= 1 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestLRUCacheEvictionOrder(t *testing.T) {
	c := NewLRUCache(100)
	c.Access(1, 40)
	c.Access(2, 40)
	c.Access(1, 40) // 1 now MRU
	c.Access(3, 40) // must evict 2
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestLRUCacheOversizeObject(t *testing.T) {
	c := NewLRUCache(100)
	if c.Access(1, 500) {
		t.Fatal("oversize access should miss")
	}
	if c.Len() != 0 {
		t.Fatal("oversize object must not be cached")
	}
}

func TestLRUCacheResize(t *testing.T) {
	c := NewLRUCache(100)
	c.Access(1, 10)
	c.Access(2, 10)
	// Overwrite object 1 with a bigger value; hit, accounting adjusts.
	if !c.Access(1, 90) {
		t.Fatal("resized access should still hit")
	}
	if c.UsedBytes() > 100 {
		t.Fatalf("resize overflowed capacity: %d", c.UsedBytes())
	}
	if !c.Contains(1) {
		t.Fatal("resized (MRU) object should survive eviction")
	}
}

func TestLRUCacheInvalidate(t *testing.T) {
	c := NewLRUCache(100)
	c.Access(1, 10)
	c.Invalidate(1)
	c.Invalidate(42) // no-op
	if c.Contains(1) || c.UsedBytes() != 0 {
		t.Fatal("invalidate failed")
	}
	c.ResetStats()
	if c.HitRate() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestLRUCacheNeverOverflowsProperty(t *testing.T) {
	f := func(keys []uint8, sizes []uint8) bool {
		c := NewLRUCache(256)
		for i, k := range keys {
			size := int64(17)
			if i < len(sizes) {
				size = int64(sizes[i])%100 + 1
			}
			c.Access(uint64(k), size)
			if c.UsedBytes() > 256 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeCapacityCache(t *testing.T) {
	c := NewLRUCache(-5)
	if c.Access(1, 1) {
		t.Fatal("zero-capacity cache should always miss")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache should stay empty")
	}
}

func TestDiscretePlatformSanity(t *testing.T) {
	p := DiscretePlatform()
	k := KaveriPlatform()
	if p.PriceUSD != 25*k.PriceUSD {
		t.Fatal("paper §V-E: discrete processors cost 25x the APU")
	}
	if p.TDPWatts <= k.TDPWatts {
		t.Fatal("discrete TDP should exceed APU TDP")
	}
	// Discrete GPU should crush the APU GPU on a big random-access batch.
	md := NewModel(p, 0, 1)
	mk := NewModel(k, 0, 1)
	w := Work{N: 100000, InstrPerQuery: 60, MemAccessesPerQuery: 1.5}
	if md.TaskTime(GPU, w, 0) >= mk.TaskTime(GPU, w, 0) {
		t.Fatal("discrete GPU should be faster than APU GPU")
	}
}

func TestAtomicDisruptionBounds(t *testing.T) {
	if got := AtomicDisruption(0, time.Millisecond); got != 0 {
		t.Fatalf("no atomics → %v", got)
	}
	if got := AtomicDisruption(1000, 0); got != 0 {
		t.Fatalf("zero window → %v", got)
	}
	// 600 atomics at 150ns over 300µs = 2M/s x 150ns = 0.3 extra µ.
	got := AtomicDisruption(600, 300*time.Microsecond)
	if got < 0.29 || got > 0.31 {
		t.Fatalf("disruption = %v, want ~0.3", got)
	}
	// The GPU's own CAS serialization caps the issue rate (3.1M/s), bounding
	// the added µ at ~0.465 no matter how many atomics a batch carries.
	capVal := AtomicDisruption(1e9, time.Microsecond)
	if capVal < 0.46 || capVal > 0.47 {
		t.Fatalf("capped disruption = %v, want ~0.465", capVal)
	}
	if AtomicDisruption(1e12, time.Microsecond) != capVal {
		t.Fatal("disruption not capped")
	}
}
