package pipeline

import (
	"testing"
	"time"
)

func TestBatchSizerDefaults(t *testing.T) {
	var z BatchSizer
	if got := z.Current(); got != DefaultInitialBatch {
		t.Fatalf("Current() = %d, want default %d", got, DefaultInitialBatch)
	}
	z2 := BatchSizer{Min: 32, Max: 256}
	if got := z2.Current(); got != 32 {
		t.Fatalf("Current() = %d, want Min 32", got)
	}
}

func TestBatchSizerSetClamps(t *testing.T) {
	z := BatchSizer{Min: 64, Max: 1024}
	z.Set(8)
	if got := z.Current(); got != 64 {
		t.Fatalf("Set(8) then Current() = %d, want clamped to 64", got)
	}
	z.Set(1 << 20)
	if got := z.Current(); got != 1024 {
		t.Fatalf("Set(big) then Current() = %d, want clamped to 1024", got)
	}
	z.Set(0) // ignored
	if got := z.Current(); got != 1024 {
		t.Fatalf("Set(0) must be ignored, Current() = %d", got)
	}
}

func TestBatchSizerFeedback(t *testing.T) {
	z := BatchSizer{Interval: time.Millisecond, Min: 16, Max: 1 << 16}
	z.Set(1024)

	// Batch finished in half the interval: size should grow toward the bound.
	fast := &Batch{}
	fast.Times.Tmax = 500 * time.Microsecond
	if got := z.Observe(fast); got <= 1024 {
		t.Fatalf("Observe(fast) = %d, want growth above 1024", got)
	}

	// Batch blew through the interval: size must shrink.
	z.Set(1024)
	slow := &Batch{}
	slow.Times.Tmax = 4 * time.Millisecond
	if got := z.Observe(slow); got >= 1024 {
		t.Fatalf("Observe(slow) = %d, want shrink below 1024", got)
	}

	// The per-step ratio is clamped to [0.5, 2] so one noisy batch cannot
	// swing the size by orders of magnitude.
	z.Set(1024)
	verySlow := &Batch{}
	verySlow.Times.Tmax = time.Second
	if got := z.Observe(verySlow); got != 512 {
		t.Fatalf("Observe(very slow) = %d, want half (ratio clamp)", got)
	}

	// No measurement: size unchanged.
	z.Set(1024)
	if got := z.Observe(&Batch{}); got != 1024 {
		t.Fatalf("Observe(no Tmax) = %d, want unchanged 1024", got)
	}
	if got := z.Observe(nil); got != 1024 {
		t.Fatalf("Observe(nil) = %d, want unchanged 1024", got)
	}
}

func TestStaticProviderClamps(t *testing.T) {
	p := &StaticProvider{Config: MegaKV(), Interval: time.Millisecond, MinBatch: 100, MaxBatch: 200}
	cfg, n := p.NextConfig(nil)
	if n < 100 || n > 200 {
		t.Fatalf("initial batch %d outside clamps", n)
	}
	if cfg.GPUDepth != 1 {
		t.Fatal("config not passed through")
	}
	// A batch that took far too long must shrink the next one (but not
	// below MinBatch).
	prev := &Batch{Times: StageTimes{Tmax: 100 * time.Millisecond}}
	_, n2 := p.NextConfig(prev)
	if n2 > n || n2 < 100 {
		t.Fatalf("batch after overlong Tmax = %d (was %d)", n2, n)
	}
	// A fast batch must grow the next one (but not above MaxBatch).
	prev = &Batch{Times: StageTimes{Tmax: time.Microsecond}}
	_, n3 := p.NextConfig(prev)
	if n3 < n2 || n3 > 200 {
		t.Fatalf("batch after fast Tmax = %d", n3)
	}
}
