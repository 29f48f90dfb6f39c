package pipeline

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
)

// ---- helpers ------------------------------------------------------------

// runCoalesced submits frames so they coalesce into (at most) one big batch:
// a dummy frame seals first and its batch parks in the testStage1Dequeued
// hook, so everything submitted meanwhile accumulates behind the inflight
// count and seals together on release. Returns the runner's final stats. The
// dummy frame is excluded from the caller's view.
func runCoalesced(t *testing.T, st LiveStore, opts LiveOptions, frames []*LiveFrame) LiveStats {
	t.Helper()
	done := make(chan *LiveFrame, len(frames)+8)
	opts.Done = func(f *LiveFrame) { done <- f }
	if opts.BatchInterval == 0 {
		opts.BatchInterval = time.Hour // only explicit seals
	}
	r := NewLiveRunner(st, opts)
	defer r.Close()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	r.testStage1Dequeued = func() {
		once.Do(func() {
			entered <- struct{}{}
			<-release
		})
	}
	if !r.Submit(getFrame("warm")) {
		t.Fatal("Submit dummy rejected")
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stage-1 worker never parked on the dummy batch")
	}
	for i, f := range frames {
		if !r.Submit(f) {
			t.Fatalf("Submit frame %d rejected", i)
		}
	}
	close(release)
	collectFrames(t, done, len(frames)+1)
	r.Close()
	return r.Stats()
}

// stealWorkload builds a deterministic mixed workload: per-frame keys are
// disjoint (cross-frame write order inside a batch is unspecified under
// chunking, exactly like concurrent clients on the wire), and every read has
// a single correct answer under the batch's writes-before-reads contract.
func stealWorkload(nframes, presets int) []*LiveFrame {
	frames := make([]*LiveFrame, nframes)
	for i := range frames {
		f := &LiveFrame{}
		add := func(q proto.Query) { f.Queries = append(f.Queries, q) }
		add(proto.Query{Op: proto.OpSet, Key: []byte(fmt.Sprintf("s%03d", i)), Value: []byte(fmt.Sprintf("sv%03d", i))})
		add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("s%03d", i))})
		add(proto.Query{Op: proto.OpDelete, Key: []byte(fmt.Sprintf("d%03d", i))})
		add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("d%03d", i))})
		add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("absent%03d", i))})
		for j := 0; j < 11; j++ {
			add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("p%03d", (i*11+j)%presets))})
		}
		frames[i] = f
	}
	return frames
}

// stealStore presets the keys stealWorkload expects.
func stealStore(nframes, presets int) *fakeLiveStore {
	st := newFakeLiveStore()
	for i := 0; i < presets; i++ {
		st.m[fmt.Sprintf("p%03d", i)] = []byte(fmt.Sprintf("pv%03d", i))
	}
	for i := 0; i < nframes; i++ {
		st.m[fmt.Sprintf("d%03d", i)] = []byte("doomed")
	}
	return st
}

// checkStealWorkload asserts every response of every frame against the
// workload's single correct answer — this is the exactly-once check: each
// query slot holds exactly the response its query must produce.
func checkStealWorkload(t *testing.T, frames []*LiveFrame, presets int) {
	t.Helper()
	for i, f := range frames {
		if f.Err {
			t.Fatalf("frame %d poisoned", i)
		}
		if len(f.Resps) != len(f.Queries) {
			t.Fatalf("frame %d: %d resps for %d queries", i, len(f.Resps), len(f.Queries))
		}
		expect := func(qi int, status proto.Status, val string) {
			got := f.Resps[qi]
			if got.Status != status || (val != "" && string(got.Value) != val) {
				t.Fatalf("frame %d query %d = %v %q, want %v %q", i, qi, got.Status, got.Value, status, val)
			}
		}
		expect(0, proto.StatusOK, "")                       // SET
		expect(1, proto.StatusOK, fmt.Sprintf("sv%03d", i)) // GET own SET
		expect(2, proto.StatusOK, "")                       // DELETE preset
		expect(3, proto.StatusNotFound, "")                 // GET deleted
		expect(4, proto.StatusNotFound, "")                 // GET absent
		for j := 0; j < 11; j++ {
			expect(5+j, proto.StatusOK, fmt.Sprintf("pv%03d", (i*11+j)%presets))
		}
	}
}

// ---- WorkStealing configs run as fixed assignment ----------------------
//
// Work stealing is the simulator's mechanism (exec.go, Fig 15). The live
// runner has none: a batch sealed with a WorkStealing config must execute
// exactly like the same config without it.

// TestLiveStealEquivalence: a batch sealed with a WorkStealing config must
// answer every query exactly once, with exactly the responses the same config
// without WorkStealing produces — across a multi-stage and the fused
// single-stage config.
func TestLiveStealEquivalence(t *testing.T) {
	const nframes, presets = 24, 40
	cases := []struct {
		name string
		cfg  Config
	}{
		{"multi-stage", MegaKV()},
		{"fused-single-stage", Config{GPUDepth: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(steal bool) []*LiveFrame {
				cfg := tc.cfg
				cfg.WorkStealing = steal
				frames := stealWorkload(nframes, presets)
				runCoalesced(t, stealStore(nframes, presets), LiveOptions{
					Provider: &fixedProvider{cfg: cfg, n: 1 << 20},
				}, frames)
				return frames
			}
			off := run(false)
			on := run(true)
			checkStealWorkload(t, on, presets)
			for i := range off {
				for qi := range off[i].Resps {
					a, b := off[i].Resps[qi], on[i].Resps[qi]
					if a.Status != b.Status || string(a.Value) != string(b.Value) {
						t.Fatalf("frame %d query %d: off=%v %q on=%v %q",
							i, qi, a.Status, a.Value, b.Status, b.Value)
					}
				}
			}
		})
	}
}

// TestLiveStealPanicContainment: under a WorkStealing config a poisoned key
// must poison exactly the frames that read it, each once, and every other
// frame of the batch must be answered in full.
func TestLiveStealPanicContainment(t *testing.T) {
	const nframes, presets = 24, 40
	st := stealStore(nframes, presets)
	st.panicOn = "p007"
	ws := MegaKV()
	ws.WorkStealing = true
	frames := stealWorkload(nframes, presets)
	stats := runCoalesced(t, st, LiveOptions{
		Provider: &fixedProvider{cfg: ws, n: 1 << 20},
	}, frames)
	poisoned := 0
	for i, f := range frames {
		hasKey := false
		for _, q := range f.Queries {
			if q.Op == proto.OpGet && string(q.Key) == "p007" {
				hasKey = true
			}
		}
		if hasKey {
			poisoned++
			if !f.Err {
				t.Fatalf("frame %d read the poisoned key but is not marked Err", i)
			}
			continue
		}
		if f.Err {
			t.Fatalf("frame %d poisoned without touching the bad key", i)
		}
		if len(f.Resps) != len(f.Queries) {
			t.Fatalf("healthy frame %d: %d resps for %d queries", i, len(f.Resps), len(f.Queries))
		}
	}
	if poisoned == 0 {
		t.Fatal("workload never touched the poisoned key")
	}
	if stats.Panics != uint64(poisoned) {
		t.Fatalf("Panics = %d, want one per poisoned frame (%d)", stats.Panics, poisoned)
	}
}

// TestLiveStealConcurrentWriters hammers a runner installing a WorkStealing
// config with concurrent writer goroutines while readers stream GETs: every
// reader response must be one of the two legal answers for its key
// (unwritten yet, or the writers' only value). Run under -race it probes the
// batched read path against concurrent batches' writes.
func TestLiveStealConcurrentWriters(t *testing.T) {
	const presets = 16
	st := stealStore(0, presets)
	ws := MegaKV()
	ws.WorkStealing = true
	tracked := make(map[*LiveFrame]bool)
	var trMu sync.Mutex
	var failures []string
	done := make(chan *LiveFrame, 256)
	// Response values alias the batch arena and are only valid during
	// delivery (the server serializes inside Done), so the reader frames are
	// validated synchronously here, not after the fact.
	check := func(f *LiveFrame) {
		if f.Err {
			failures = append(failures, "reader frame poisoned")
			return
		}
		for qi, q := range f.Queries {
			got := f.Resps[qi]
			switch {
			case q.Key[0] == 'w' && got.Status == proto.StatusOK && string(got.Value) != "wv":
				failures = append(failures, fmt.Sprintf("writer key %q = %q, want \"wv\"", q.Key, got.Value))
			case q.Key[0] == 'w' && got.Status != proto.StatusOK && got.Status != proto.StatusNotFound:
				failures = append(failures, fmt.Sprintf("writer key %q status %v", q.Key, got.Status))
			case q.Key[0] == 'p' && got.Status != proto.StatusOK:
				failures = append(failures, fmt.Sprintf("preset key %q = %v, want OK", q.Key, got.Status))
			}
		}
	}
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: ws, n: 256},
		BatchInterval: time.Millisecond,
		Done: func(f *LiveFrame) {
			trMu.Lock()
			ok := tracked[f]
			if ok {
				check(f)
			}
			trMu.Unlock()
			if ok {
				done <- f
			}
		},
	})
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Submit(setFrame(fmt.Sprintf("w%02d", (w*7+i)%8), "wv"))
			}
		}(w)
	}

	deadline := time.Now().Add(10 * time.Second)
	var readerFrames []*LiveFrame
	for len(readerFrames) < 64 && time.Now().Before(deadline) {
		f := &LiveFrame{}
		for j := 0; j < 16; j++ {
			if j%2 == 0 {
				f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("w%02d", j%8))})
			} else {
				f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("p%03d", j%presets))})
			}
		}
		trMu.Lock()
		tracked[f] = true
		trMu.Unlock()
		if r.Submit(f) {
			readerFrames = append(readerFrames, f)
			collectFrames(t, done, 1)
		}
	}
	close(stop)
	wg.Wait()
	r.Close()

	trMu.Lock()
	defer trMu.Unlock()
	if len(readerFrames) == 0 {
		t.Fatal("no reader frames were admitted")
	}
	if len(failures) > 0 {
		t.Fatalf("%d bad responses, first: %s", len(failures), failures[0])
	}
}
