package costmodel

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/task"
)

// Controller closes the paper's adaptation loop over the *live* serving
// pipeline: it implements pipeline.ConfigProvider by pooling each completed
// batch's measured profile into a window of about windowQueries queries,
// feeding each closed window through the workload profiler and, when the
// profiler's 10% change trigger fires, re-running the cost-model search to
// install a new (config, batch size) pair at the next batch boundary. It is
// the live analogue of internal/dido.System.NextConfig, consuming profiles
// measured on real hardware instead of the simulator's.
//
// The window is what keeps the 10% rule honest on the live path: a 64-query
// batch's GET ratio alone swings ±12% (one σ) on a 50/50 mix, so a
// per-batch profile fires the trigger on noise on most batches, and every
// replan costs a full planner search. Pooled over a window the noise is
// under 1%, so only a real shift replans, about one window after it starts.
// The batch size feedback (Sizer) and the /trace events stay per batch.
//
// The searched space (pipeline.Enumerate) is pipeline shapes and index
// assignments only, and unlike the simulated system the controller never
// layers stealing on the winner: the live runner does not steal work
// (stealing is the simulator's, Fig 15), so a plan priced with Eq 3's
// stolen-work rebalance would promise a batch size the executor cannot
// deliver.
type Controller struct {
	Planner  *Planner
	Profiler *profiler.Profiler
	Sizer    *pipeline.BatchSizer
	// Trace, when set, receives one event per batch-boundary decision —
	// replans and keeps alike — making the adaptation loop auditable from
	// the admin endpoint (/trace). Appending is O(1) and allocation-free,
	// so tracing is safe to leave on in production.
	Trace *obs.TraceRing

	mu       sync.Mutex
	cfg      pipeline.Config
	replans  uint64
	lastPred Prediction // most recent installed plan; Tmax is its prediction

	// The open window: the pooled profile of its batches, when its first
	// batch completed, and the running sum of per-batch planner error.
	win      task.Profile
	winStart time.Time
	errSum   float64
	errN     int
	planErr  float64 // mean planner error over the last closed window
}

// The adaptation window closes after windowQueries queries or windowMaxAge,
// whichever comes first: ≈16 ms of traffic at 1 M q/s, and a bound on how
// long a slow trickle of traffic waits to be profiled.
const (
	windowQueries = 16 << 10
	windowMaxAge  = 100 * time.Millisecond
)

// NewController returns a controller starting at initial. A nil sizer gets
// one derived from the planner's interval and batch bounds.
func NewController(pl *Planner, prof *profiler.Profiler, initial pipeline.Config, sizer *pipeline.BatchSizer) *Controller {
	if sizer == nil {
		sizer = &pipeline.BatchSizer{Interval: pl.Interval, Min: pl.MinBatch, Max: pl.MaxBatch}
		sizer.Set(pipeline.DefaultInitialBatch)
	}
	// The profiler sees one pooled profile per window, so it samples skew
	// on every observation: once per window. A window's estimate scatters
	// by σ ≈ 0.07 on Zipf traffic (measured on udp-shift-adapt) against the
	// 0.1 trigger, and windows close ~100 times a second; at weight 0.25 the
	// running estimate's σ is ≈ 0.026, so noise stops firing the trigger
	// while a real shift still moves it within a few windows.
	prof.SampleBatches = 1
	prof.SkewWeight = 0.25
	return &Controller{Planner: pl, Profiler: prof, Sizer: sizer, cfg: initial}
}

// NextConfig implements pipeline.ConfigProvider. The live runner serializes
// calls (one per batch boundary), so the only concurrency to guard is the
// accessor methods.
func (c *Controller) NextConfig(prev *pipeline.Batch) (pipeline.Config, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev == nil {
		return c.cfg, c.Sizer.Current()
	}
	now := time.Now()
	oldCfg, oldTarget := c.cfg, c.Sizer.Current()
	if c.win.N == 0 {
		c.winStart = now
	}
	c.win = c.win.Merge(prev.Profile)
	if c.lastPred.Tmax > 0 && prev.Times.Tmax > 0 {
		c.errSum += math.Abs(float64(c.lastPred.Tmax-prev.Times.Tmax)) / float64(prev.Times.Tmax)
		c.errN++
	}
	measured := prev.Profile
	measured.Skew = c.Profiler.Skew()
	replan := false
	// Until the first plan is installed every batch closes the window, so
	// the server is planned from its first measured batch.
	if c.replans == 0 || c.win.N >= windowQueries || now.Sub(c.winStart) >= windowMaxAge {
		measured, replan = c.Profiler.Observe(c.win)
		if c.errN > 0 {
			c.planErr = c.errSum / float64(c.errN)
		}
		c.win, c.errSum, c.errN = task.Profile{}, 0, 0
	}
	replanned := false
	var target int
	if replan {
		pp := c.plannerProfile(measured)
		best, _ := c.Planner.Best(pp)
		if best.ThroughputOPS > 0 {
			c.cfg = best.Config
			c.Sizer.Set(best.Batch)
			c.replans++
			c.lastPred = best
			replanned = true
			target = c.Sizer.Current()
		}
	}
	if !replanned {
		// Between replans the batch size follows the shared feedback
		// controller, nudging measured Tmax toward the scheduling interval.
		target = c.Sizer.Observe(prev)
	}
	if c.Trace != nil {
		c.Trace.Append(obs.TraceEvent{
			When:          now,
			Seq:           prev.Seq,
			Replan:        replanned,
			Old:           oldCfg,
			New:           c.cfg,
			OldTarget:     oldTarget,
			NewTarget:     target,
			Profile:       measured,
			PredictedTmax: c.lastPred.Tmax,
			RealizedTmax:  prev.Times.Tmax,
			RealizedWall:  prev.Wall,
		})
	}
	return c.cfg, target
}

// plannerProfile strips measurements the cost model must derive analytically
// (same honesty rule as the simulated loop: the planner computes the
// cache-hit portion from Zipf's law, it does not get told).
func (c *Controller) plannerProfile(p task.Profile) task.Profile {
	p.CacheHitPortion = 0
	return p
}

// Replans returns how many times the loop installed a re-planned config.
func (c *Controller) Replans() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replans
}

// PlannerError returns the mean of |predicted − realized| / realized Tmax
// over the batches of the last closed window: how far the installed plan's
// prediction is from what the stages measured (0 before any window closed).
func (c *Controller) PlannerError() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planErr
}

// CurrentConfig returns the config the controller last handed out.
func (c *Controller) CurrentConfig() pipeline.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}
