package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/zipf"
)

func newTestController() *Controller {
	pl := NewPlanner(apu.KaveriPlatform(), 333*time.Microsecond)
	st := store.New(store.Config{MemoryBytes: 4 << 20, IndexEntries: 10000, Seed: 1})
	return NewController(pl, profiler.New(st), pipeline.DefaultLiveConfig(), nil)
}

func measuredBatch(getRatio float64) *pipeline.Batch {
	b := &pipeline.Batch{}
	b.Profile = task.Profile{
		N:                1024,
		GetRatio:         getRatio,
		KeySize:          16,
		ValueSize:        64,
		Population:       100000,
		AvgInsertBuckets: 2,
		SearchProbes:     1.5,
		WireQueryBytes:   24,
		RVUnitNanos:      200,
		SDUnitNanos:      300,
	}
	b.Times.Tmax = 200 * time.Microsecond
	return b
}

func TestControllerFirstBatchReplans(t *testing.T) {
	c := newTestController()
	cfg0, n0 := c.NextConfig(nil)
	if cfg0 != pipeline.DefaultLiveConfig() || n0 < 1 {
		t.Fatalf("initial NextConfig = %v/%d", cfg0, n0)
	}
	cfg1, n1 := c.NextConfig(measuredBatch(0.95))
	if c.Replans() != 1 {
		t.Fatalf("Replans = %d, want 1 (first profile always replans)", c.Replans())
	}
	if n1 < 1 {
		t.Fatalf("batch size %d", n1)
	}
	if cfg1.WorkStealing {
		t.Fatal("live controller must not install work-stealing configs")
	}
	if cfg1 != c.CurrentConfig() {
		t.Fatal("CurrentConfig disagrees with NextConfig")
	}
}

func TestControllerStableWorkloadNoReplan(t *testing.T) {
	c := newTestController()
	c.NextConfig(nil)
	c.NextConfig(measuredBatch(0.95))
	base := c.Replans()
	for i := 0; i < 10; i++ {
		c.NextConfig(measuredBatch(0.95))
	}
	if c.Replans() != base {
		t.Fatalf("Replans moved %d → %d on a stable workload", base, c.Replans())
	}
	// Between replans, batch size follows the Tmax feedback: a batch far
	// under the interval grows the target.
	before := c.Sizer.Current()
	fast := measuredBatch(0.95)
	fast.Times.Tmax = 50 * time.Microsecond
	_, n := c.NextConfig(fast)
	if n <= before && before < c.Planner.MaxBatch {
		t.Fatalf("feedback sizing: %d → %d, want growth", before, n)
	}
}

func TestControllerTraceRecordsEveryDecision(t *testing.T) {
	c := newTestController()
	c.Trace = obs.NewTraceRing(16)
	c.NextConfig(nil) // initial handout: no completed batch, no event
	if got := c.Trace.Total(); got != 0 {
		t.Fatalf("initial NextConfig traced %d events, want 0", got)
	}

	// First measured batch always replans (profiler baseline).
	b := measuredBatch(0.95)
	b.Seq = 7
	b.Wall = 250 * time.Microsecond
	cfg1, n1 := c.NextConfig(b)
	// A stable follow-up is a "keep" decision — still traced.
	c.NextConfig(measuredBatch(0.95))

	if got := c.Trace.Total(); got != 2 {
		t.Fatalf("traced %d events over 2 decisions", got)
	}
	ev := c.Trace.Snapshot()
	first, second := ev[0], ev[1]

	if !first.Replan {
		t.Fatal("first measured batch must trace as a replan")
	}
	if first.Seq != 7 {
		t.Fatalf("Seq = %d, want 7", first.Seq)
	}
	if first.Old != pipeline.DefaultLiveConfig() {
		t.Fatalf("old config = %v, want the initial config", first.Old)
	}
	if first.New != cfg1 || first.NewTarget != n1 {
		t.Fatalf("new (%v, %d) disagrees with NextConfig (%v, %d)",
			first.New, first.NewTarget, cfg1, n1)
	}
	if first.Profile.GetRatio != 0.95 {
		t.Fatalf("profile not recorded: %+v", first.Profile)
	}
	if first.RealizedTmax != 200*time.Microsecond || first.RealizedWall != 250*time.Microsecond {
		t.Fatalf("realized tmax=%v wall=%v", first.RealizedTmax, first.RealizedWall)
	}
	if first.PredictedTmax <= 0 {
		t.Fatal("replan event missing the planner's predicted Tmax")
	}
	if first.When.IsZero() {
		t.Fatal("event not timestamped")
	}

	if second.Replan {
		t.Fatal("stable workload decision traced as a replan")
	}
	if second.Old != second.New {
		t.Fatalf("keep decision changed config: %v → %v", second.Old, second.New)
	}
	// The keep decision still reports the standing plan's prediction.
	if second.PredictedTmax != first.PredictedTmax {
		t.Fatalf("keep event prediction %v != standing plan %v",
			second.PredictedTmax, first.PredictedTmax)
	}
}

// windowBatches is how many measuredBatch (1024-query) batches fill one
// adaptation window.
const windowBatches = windowQueries / 1024

// TestControllerWorkloadShiftReplans shifts the measured GET ratio 0.95 →
// 0.50 at a window boundary: exactly one replan, inside the first window of
// the new mix, and none after it while the mix holds. A shift that lands
// mid-window replans at most twice: on the blended window and on the first
// clean one.
func TestControllerWorkloadShiftReplans(t *testing.T) {
	c := newTestController()
	c.NextConfig(nil)
	c.NextConfig(measuredBatch(0.95)) // the first batch plans
	for i := 0; i < 3*windowBatches; i++ {
		c.NextConfig(measuredBatch(0.95))
	}
	base := c.Replans()
	for i := 0; i < windowBatches; i++ {
		c.NextConfig(measuredBatch(0.50))
	}
	if c.Replans() != base+1 {
		t.Fatalf("Replans = %d after one window of the new mix, want %d", c.Replans(), base+1)
	}
	for i := 0; i < 3*windowBatches; i++ {
		c.NextConfig(measuredBatch(0.50))
	}
	if c.Replans() != base+1 {
		t.Fatalf("Replans = %d while the new mix held, want %d", c.Replans(), base+1)
	}

	base = c.Replans()
	for i := 0; i < windowBatches/2; i++ {
		c.NextConfig(measuredBatch(0.50))
	}
	for i := 0; i < 4*windowBatches; i++ {
		c.NextConfig(measuredBatch(0.95))
	}
	if got := c.Replans() - base; got < 1 || got > 2 {
		t.Fatalf("mid-window shift replanned %d times, want 1 or 2", got)
	}
}

// TestControllerNoisyBatchesNoReplan feeds 64-query batches of a 50/50 mix
// whose measured GET ratio carries binomial noise (σ ≈ 12 % of the ratio,
// enough to fire the 10 % rule batch by batch): after the first window the
// pooled profile must never replan.
func TestControllerNoisyBatchesNoReplan(t *testing.T) {
	c := newTestController()
	c.NextConfig(nil)
	rng := rand.New(rand.NewSource(7))
	noisy := 0
	batch := func() *pipeline.Batch {
		gets := 0
		for q := 0; q < 64; q++ {
			gets += rng.Intn(2)
		}
		b := measuredBatch(float64(gets) / 64)
		b.Profile.N = 64
		if math.Abs(b.Profile.GetRatio-0.5) > 0.05 {
			noisy++
		}
		return b
	}
	perWindow := windowQueries / 64
	for i := 0; i < 1+perWindow; i++ {
		c.NextConfig(batch())
	}
	base := c.Replans()
	for i := 0; i < 10*perWindow; i++ {
		c.NextConfig(batch())
	}
	if c.Replans() != base {
		t.Fatalf("noisy batches replanned %d times after the first window", c.Replans()-base)
	}
	if noisy < perWindow {
		t.Fatalf("only %d batches strayed > 10%% from the mix: the fixture lost its noise", noisy)
	}
}

// TestControllerSkewedToUniformShift drives real GETs into the profiler's
// store, Zipf(0.99) with a 95 % GET profile, then uniform with 50 %: the
// shift moves both the measured GET ratio and the store-sampled skew, and
// exactly one replan lands inside the first window of the new mix.
func TestControllerSkewedToUniformShift(t *testing.T) {
	pl := NewPlanner(apu.KaveriPlatform(), 333*time.Microsecond)
	st := store.New(store.Config{MemoryBytes: 4 << 20, IndexEntries: 10000, Seed: 1})
	const pop = 5000
	keys := make([][]byte, pop)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i))
		if _, _, err := st.Set(keys[i], make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewController(pl, profiler.New(st), pipeline.DefaultLiveConfig(), nil)
	c.NextConfig(nil)
	zg := zipf.NewGenerator(pop, 0.99, 1)
	rng := rand.New(rand.NewSource(1))
	run := func(batches int, skewed bool) {
		for i := 0; i < batches; i++ {
			ratio := 0.50
			for q := 0; q < 32; q++ { // a sample of the batch's GETs: keeps a window well inside windowMaxAge under -race
				k := rng.Intn(pop)
				if skewed {
					k = int(zg.Next() - 1)
				}
				st.Get(keys[k])
			}
			if skewed {
				ratio = 0.95
			}
			c.NextConfig(measuredBatch(ratio))
		}
	}
	run(1, true) // the first batch plans
	run(4*windowBatches, true)
	skewedEst, base := c.Profiler.Skew(), c.Replans()
	run(windowBatches, false)
	if c.Replans() != base+1 {
		t.Fatalf("Replans = %d after one window of the uniform mix, want %d", c.Replans(), base+1)
	}
	t.Logf("skew estimate %.3f → %.3f", skewedEst, c.Profiler.Skew())
	if c.Profiler.Skew() >= skewedEst {
		t.Fatalf("skew estimate %v did not fall from %v on uniform traffic", c.Profiler.Skew(), skewedEst)
	}
}

// TestControllerPlannerError checks the window's planner-error figure: the
// mean of |predicted − realized| / realized Tmax over its batches, published
// when the window closes.
func TestControllerPlannerError(t *testing.T) {
	c := newTestController()
	c.NextConfig(nil)
	c.NextConfig(measuredBatch(0.95)) // plans; no prediction existed yet
	if c.PlannerError() != 0 {
		t.Fatalf("PlannerError = %v before any window closed, want 0", c.PlannerError())
	}
	pred := c.lastPred.Tmax
	for i := 0; i < windowBatches; i++ {
		b := measuredBatch(0.95)
		b.Times.Tmax = 2 * pred
		c.NextConfig(b)
	}
	if got := c.PlannerError(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("PlannerError = %v with every batch at twice the prediction, want 0.5", got)
	}
}

// stealImbalanced is a write-heavy profile that makes the post-GPU stage the
// predicted bottleneck next to an idle-ish helper, so Eq 3 predicts a strong
// gain for the winning shape's work-stealing variant.
func stealImbalanced(c *Controller) task.Profile {
	return c.plannerProfile(task.Profile{
		N: 8192, GetRatio: 0.5, KeySize: 16, ValueSize: 64, Skew: 0.99,
		Population: 1 << 20, EvictionRate: 1, AvgInsertBuckets: 2,
		SearchProbes: 1.5, WireQueryBytes: 28,
		RVInstr: 15, SDInstr: 15, RVUnitNanos: 4, SDUnitNanos: 4,
	})
}

// TestControllerStealGating pins the one steal decision the live controller
// makes: never. The live runner executes a WorkStealing config as fixed
// assignment, so the keep filter must exclude stealing configs from the
// search even where Eq 3 predicts them a gain of 10% or more.
func TestControllerStealGating(t *testing.T) {
	c := newTestController()
	prof := stealImbalanced(c)
	best, _ := c.Planner.BestFiltered(prof, c.keep)
	if best.Config.GPUDepth == 0 {
		t.Skip("winner is single-stage on this platform; there is nothing to steal across")
	}
	ws := best.Config
	ws.WorkStealing = true
	gain := c.Planner.EvaluateConfig(ws, prof).ThroughputOPS/best.ThroughputOPS - 1
	if gain < 0.10 {
		t.Fatalf("fixture lost its point: predicted steal gain %.3f, want >= 0.10", gain)
	}
	if c.keep(ws) {
		t.Fatal("keep admits a work-stealing config")
	}
	if best.Config.WorkStealing {
		t.Fatalf("filtered search returned a work-stealing config: %v", best.Config)
	}
}

// TestControllerStealEndToEnd drives NextConfig with the profile whose
// stealing variant Eq 3 favours and asserts the installed plan does not
// steal.
func TestControllerStealEndToEnd(t *testing.T) {
	c := newTestController()
	c.NextConfig(nil)
	b := measuredBatch(0.5)
	b.Profile = stealImbalanced(c)
	cfg, n := c.NextConfig(b)
	if n < 1 {
		t.Fatalf("batch size %d", n)
	}
	if c.Replans() != 1 {
		t.Fatalf("Replans = %d, want 1 (first profile always replans)", c.Replans())
	}
	if cfg.WorkStealing {
		t.Fatalf("installed a work-stealing config: %v", cfg)
	}
	if c.CurrentConfig() != cfg {
		t.Fatal("CurrentConfig disagrees with NextConfig")
	}
}
