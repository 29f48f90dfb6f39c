package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Load(); got != 0 {
		t.Fatalf("new counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if got := c.Reset(); got != 42 {
		t.Fatalf("reset returned %d, want 42", got)
	}
	if got := c.Load(); got != 0 {
		t.Fatalf("after reset = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestFloatGauge(t *testing.T) {
	var g FloatGauge
	g.Set(3.25)
	if got := g.Load(); got != 3.25 {
		t.Fatalf("float gauge = %v, want 3.25", got)
	}
}

func TestMeanAccumulator(t *testing.T) {
	var m MeanAccumulator
	if m.Mean() != 0 {
		t.Fatal("empty accumulator mean should be 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Observe(v)
	}
	if got := m.Mean(); got != 2.5 {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	m.Reset()
	if m.Count != 0 || m.Sum != 0 {
		t.Fatal("reset did not clear accumulator")
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewHistogram(1, 1)
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	for _, v := range []float64{5, 15, 25, 35, 15} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Mean(); got != 19 {
		t.Fatalf("mean = %v, want 19", got)
	}
	if got := h.Min(); got != 5 {
		t.Fatalf("min = %v, want 5", got)
	}
	if got := h.Max(); got != 35 {
		t.Fatalf("max = %v, want 35", got)
	}
	snap := h.Snapshot()
	want := []uint64{1, 2, 1, 1}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, snap[i], want[i])
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8, 16, 32)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%32) + 0.5)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev-1e-9 {
			t.Fatalf("quantile not monotone at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(1, 2)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(1.5)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestLatencyBoundsMicrosAscending(t *testing.T) {
	b := LatencyBoundsMicros()
	if len(b) == 0 {
		t.Fatal("no bounds")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d", i)
		}
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(samples []uint8) bool {
		if len(samples) == 0 {
			return true
		}
		bounds := []float64{32, 64, 128, 192}
		h := NewHistogram(bounds...)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range samples {
			v := float64(s)
			h.Observe(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		// Quantile estimates are exact only to bucket granularity: they may
		// undershoot the true min down to the lower edge of min's bucket and
		// overshoot the true max up to the upper edge of max's bucket.
		loEdge := 0.0
		for _, b := range bounds {
			if b < lo {
				loEdge = b
			}
		}
		hiEdge := hi // +Inf bucket interpolates toward the observed max
		for i := len(bounds) - 1; i >= 0; i-- {
			if bounds[i] >= hi {
				hiEdge = bounds[i]
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v := h.Quantile(q)
			if v < loEdge-1e-9 || v > hiEdge+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExportConsistent(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	for _, v := range []float64{5, 15, 25, 35, 15} {
		h.Observe(v)
	}
	s := h.Export()
	if s.N != 5 || s.Sum != 95 || s.Min != 5 || s.Max != 35 {
		t.Fatalf("export = %+v", s)
	}
	wantCounts := []uint64{1, 2, 1, 1}
	for i := range wantCounts {
		if s.Counts[i] != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], wantCounts[i])
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := s.Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("snapshot quantile(%v) = %v, live = %v", q, got, want)
		}
	}
	// Mutating the snapshot must not touch the histogram (it's a copy).
	s.Counts[0] = 99
	if h.Snapshot()[0] != 1 {
		t.Fatal("Export aliases the live bucket array")
	}
}

// TestConcurrentWritersAndSnapshots hammers every concurrent-safe primitive
// with parallel writers while readers take snapshots; run under -race this
// pins that the snapshot paths (Load, Export, Quantiles) are safe
// against concurrent updates, and that counters remain exact.
func TestConcurrentWritersAndSnapshots(t *testing.T) {
	var c Counter
	var g Gauge
	var fg FloatGauge
	h := NewHistogram(LatencyBoundsMicros()...)

	const writers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				fg.Set(float64(j))
				h.Observe(float64(j % 512))
			}
		}()
	}

	// Snapshot readers: every accessor a scraper would touch.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastN uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := c.Load(); v > writers*per {
					t.Errorf("counter overshot: %d", v)
					return
				}
				g.Load()
				fg.Load()
				s := h.Export()
				if s.N < lastN {
					t.Errorf("histogram count went backwards: %d → %d", lastN, s.N)
					return
				}
				lastN = s.N
				s.Quantile(0.99)
				h.Quantiles(0.5, 0.99, 0.999)
			}
		}()
	}

	// Writers finish, then stop the readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		for {
			if c.Load() == writers*per {
				close(stop)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done

	if got := c.Load(); got != writers*per {
		t.Fatalf("counter = %d, want %d", got, writers*per)
	}
	if got := h.Count(); got != writers*per {
		t.Fatalf("histogram count = %d, want %d", got, writers*per)
	}
}

func TestThroughputAndMOPS(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("throughput = %v, want 1000", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Fatalf("zero-duration throughput = %v, want 0", got)
	}
	if got := MOPS(2_000_000, time.Second); got != 2 {
		t.Fatalf("MOPS = %v, want 2", got)
	}
}
