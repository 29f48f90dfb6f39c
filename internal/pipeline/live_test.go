package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/cuckoo"
	"repro/internal/proto"
)

// fakeLiveStore is a map-backed LiveStore for runner tests. SearchBatch
// records empty candidate spans (the reads resolve everything), which is
// exactly the contract the server uses for non-*Store backends. A key listed
// in panicOn panics on search and read; a non-nil gate blocks reads of gateKey until the
// gate closes, letting tests hold a batch in a stage. The counters record how
// many calls each batched method served.
type fakeLiveStore struct {
	mu      sync.Mutex
	m       map[string][]byte
	panicOn string
	gateKey string
	gate    chan struct{}

	searchBatches, readBatches, getBatches atomic.Int32
}

func newFakeLiveStore() *fakeLiveStore {
	return &fakeLiveStore{m: make(map[string][]byte)}
}

func (f *fakeLiveStore) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	f.searchBatches.Add(1)
	for i, key := range keys {
		if f.panicOn != "" && string(key) == f.panicOn {
			panic("poisoned key")
		}
		lo[i], hi[i] = int32(len(dst)), int32(len(dst))
	}
	return dst
}

func (f *fakeLiveStore) ReadCandidatesBatch(keys [][]byte, _ []cuckoo.Location, _, _ []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	f.readBatches.Add(1)
	return f.read(keys, vals, vlo, vhi)
}

func (f *fakeLiveStore) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	f.getBatches.Add(1)
	return f.read(keys, vals, vlo, vhi)
}

// read is the per-key lookup loop behind both batched reads.
func (f *fakeLiveStore) read(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	hits := 0
	for i, key := range keys {
		if f.panicOn != "" && string(key) == f.panicOn {
			panic("poisoned key")
		}
		if f.gate != nil && string(key) == f.gateKey {
			<-f.gate
		}
		f.mu.Lock()
		v, ok := f.m[string(key)]
		f.mu.Unlock()
		if !ok {
			vlo[i], vhi[i] = -1, -1
			continue
		}
		vlo[i] = int32(len(vals))
		vals = append(vals, v...)
		vhi[i] = int32(len(vals))
		hits++
	}
	return vals, hits
}

func (f *fakeLiveStore) Set(key, value []byte) error {
	if f.gate != nil && string(key) == f.gateKey {
		<-f.gate
	}
	f.mu.Lock()
	f.m[string(key)] = append([]byte(nil), value...)
	f.mu.Unlock()
	return nil
}

func (f *fakeLiveStore) Delete(key []byte) bool {
	f.mu.Lock()
	_, ok := f.m[string(key)]
	delete(f.m, string(key))
	f.mu.Unlock()
	return ok
}

// fixedProvider always hands out the same (config, size) pair.
type fixedProvider struct {
	cfg Config
	n   int
}

func (p *fixedProvider) NextConfig(*Batch) (Config, int) { return p.cfg, p.n }

// flipProvider returns before until the first completed batch is observed,
// then after — a minimal online-reconfiguration script.
type flipProvider struct {
	before, after Config
	n             int
	flipped       bool
}

func (p *flipProvider) NextConfig(prev *Batch) (Config, int) {
	if prev != nil {
		p.flipped = true
	}
	if p.flipped {
		return p.after, p.n
	}
	return p.before, p.n
}

// cpuInsertMegaKV keeps Mega-KV's shape but assigns IN(Insert) to stage 1, so
// a gated SET (fakeLiveStore.gateKey) can hold the first stage busy while a
// test lines up the batches it wants.
func cpuInsertMegaKV() Config {
	c := MegaKV()
	c.InsertOn = apu.CPU
	return c
}

func setFrame(key, val string) *LiveFrame {
	return &LiveFrame{Queries: []proto.Query{
		{Op: proto.OpSet, Key: []byte(key), Value: []byte(val)},
	}}
}

func getFrame(keys ...string) *LiveFrame {
	f := &LiveFrame{}
	for _, k := range keys {
		f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte(k)})
	}
	return f
}

func collectFrames(t *testing.T, done chan *LiveFrame, n int) []*LiveFrame {
	t.Helper()
	out := make([]*LiveFrame, 0, n)
	for len(out) < n {
		select {
		case f := <-done:
			out = append(out, f)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d/%d", len(out)+1, n)
		}
	}
	return out
}

func TestLiveRunnerBasic(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k1"] = []byte("v1")
	done := make(chan *LiveFrame, 16)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 4},
		BatchInterval: time.Millisecond,
		Done:          func(f *LiveFrame) { done <- f },
	})
	defer r.Close()

	f1 := getFrame("k1", "absent")
	f2 := &LiveFrame{Queries: []proto.Query{
		{Op: proto.OpSet, Key: []byte("k2"), Value: []byte("v2")},
		{Op: proto.OpDelete, Key: []byte("nope")},
	}}
	if !r.Submit(f1) || !r.Submit(f2) {
		t.Fatal("Submit rejected while open")
	}
	collectFrames(t, done, 2)

	if f1.Err || f2.Err {
		t.Fatalf("unexpected frame errors: %v %v", f1.Err, f2.Err)
	}
	if got := f1.Resps[0]; got.Status != proto.StatusOK || string(got.Value) != "v1" {
		t.Fatalf("GET k1 = %+v, want OK v1", got)
	}
	if f1.Resps[1].Status != proto.StatusNotFound {
		t.Fatalf("GET absent = %+v, want NotFound", f1.Resps[1])
	}
	if f2.Resps[0].Status != proto.StatusOK {
		t.Fatalf("SET k2 = %+v, want OK", f2.Resps[0])
	}
	if f2.Resps[1].Status != proto.StatusNotFound {
		t.Fatalf("DELETE nope = %+v, want NotFound", f2.Resps[1])
	}
	if _, ok := st.m["k2"]; !ok {
		t.Fatal("SET k2 not applied to the store")
	}
	r.Close() // settle the counters: complete() increments after delivery
	s := r.Stats()
	// An idle pipeline seals each frame immediately (adaptive batching), so
	// the two frames execute as two batches.
	if s.Batches != 2 || s.Queries != 4 {
		t.Fatalf("Stats = %+v, want 2 batches / 4 queries", s)
	}
}

// TestLiveRunnerIdleSeal: a lone frame on an idle pipeline is sealed and
// executed immediately — batching only pays while the pipeline is busy, so
// neither the unreachable size target nor the (here: one hour) flush tick may
// delay it.
func TestLiveRunnerIdleSeal(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	done := make(chan *LiveFrame, 1)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 1 << 20}, // never fills
		BatchInterval: time.Hour,                                 // the tick will not help
		Done:          func(f *LiveFrame) { done <- f },
	})
	defer r.Close()

	f := getFrame("k")
	if !r.Submit(f) {
		t.Fatal("Submit rejected")
	}
	collectFrames(t, done, 1)
	if f.Resps[0].Status != proto.StatusOK {
		t.Fatalf("GET = %+v, want OK", f.Resps[0])
	}
}

// TestLiveRunnerFlushInterval: with stage 1 held busy the idle-seal path is
// unavailable, so a sub-target pending batch must be sealed by the flush
// tick — observed as the next submitted frame opening a batch of its own.
func TestLiveRunnerFlushInterval(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	st.gateKey = "hold"
	st.gate = make(chan struct{})
	done := make(chan *LiveFrame, 4)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: cpuInsertMegaKV(), n: 1 << 20},
		BatchInterval: 2 * time.Millisecond,
		Done:          func(f *LiveFrame) { done <- f },
	})
	defer r.Close()

	if !r.Submit(setFrame("hold", "x")) {
		t.Fatal("Submit hold rejected")
	}
	time.Sleep(time.Millisecond) // let the stage-1 worker park on the gate
	f := getFrame("k")
	if !r.Submit(f) { // stage 1 busy: f stays pending, only the tick seals it
		t.Fatal("Submit rejected")
	}
	time.Sleep(20 * time.Millisecond) // several ticks: the flusher seals f
	g := getFrame("k")
	if !r.Submit(g) {
		t.Fatal("Submit rejected")
	}
	close(st.gate)
	collectFrames(t, done, 3)
	if f.Resps[0].Status != proto.StatusOK || g.Resps[0].Status != proto.StatusOK {
		t.Fatalf("GETs = %+v / %+v, want OK", f.Resps[0], g.Resps[0])
	}
	r.Close()
	// hold, f and g each completed as their own batch: had the tick not
	// sealed f while the stage was busy, f and g would have shared one.
	if s := r.Stats(); s.Batches != 3 {
		t.Fatalf("Batches = %d, want 3", s.Batches)
	}
}

// TestLiveRunnerBatchBoundaryReconfig is the ISSUE's reconfiguration test: a
// new config installed at a batch boundary applies only to batches sealed
// afterwards — batches already in flight complete under the config they were
// sealed with (§III-B1).
func TestLiveRunnerBatchBoundaryReconfig(t *testing.T) {
	c0 := MegaKV()
	c1 := Config{GPUDepth: 0} // pure-CPU single stage: clearly distinct

	st := newFakeLiveStore()
	st.m["gated"] = []byte("g")
	st.m["plain"] = []byte("p")
	st.gateKey = "gated"
	st.gate = make(chan struct{})

	var mu sync.Mutex
	var seen []Config
	done := make(chan *LiveFrame, 16)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &flipProvider{before: c0, after: c1, n: 1},
		BatchInterval: time.Hour, // seal by size only: deterministic batches
		Done:          func(f *LiveFrame) { done <- f },
		OnBatchDone: func(b *Batch) {
			mu.Lock()
			seen = append(seen, b.Config)
			mu.Unlock()
		},
	})
	defer r.Close()

	// Batch A seals under c0 and parks in a stage on the gated read. Batch B
	// then seals, also under c0 — the flip to c1 only happens once A
	// completes, by which time B is already in flight.
	if !r.Submit(getFrame("gated")) {
		t.Fatal("Submit A rejected")
	}
	if !r.Submit(getFrame("plain")) {
		t.Fatal("Submit B rejected")
	}
	close(st.gate)
	collectFrames(t, done, 2)

	// Batch C seals after the flip and must carry c1.
	if !r.Submit(getFrame("plain")) {
		t.Fatal("Submit C rejected")
	}
	collectFrames(t, done, 1)
	r.Close() // settle OnBatchDone/counters: complete() runs after delivery

	mu.Lock()
	got := append([]Config(nil), seen...)
	mu.Unlock()
	want := []Config{c0, c0, c1}
	if len(got) != len(want) {
		t.Fatalf("completed %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch %d completed under %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if s := r.Stats(); s.Reconfigs != 1 {
		t.Fatalf("Reconfigs = %d, want exactly 1", s.Reconfigs)
	}
	if cfg := r.CurrentConfig(); cfg != c1 {
		t.Fatalf("CurrentConfig = %v, want %v", cfg, c1)
	}
}

// TestLiveRunnerPanicContainment proves batching does not widen the blast
// radius of a poisoned query: the panicking frame is marked Err, its
// batchmates are answered normally.
func TestLiveRunnerPanicContainment(t *testing.T) {
	st := newFakeLiveStore()
	st.m["good"] = []byte("ok")
	st.panicOn = "boom"
	st.gateKey = "hold"
	st.gate = make(chan struct{})
	done := make(chan *LiveFrame, 4)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: cpuInsertMegaKV(), n: 2},
		BatchInterval: time.Hour,
		Done:          func(f *LiveFrame) { done <- f },
	})
	defer r.Close()

	// Hold stage 1 on a gated SET so the two frames below are guaranteed to
	// accumulate into one shared batch (sealed at the size target of 2).
	if !r.Submit(setFrame("hold", "x")) {
		t.Fatal("Submit hold rejected")
	}
	time.Sleep(time.Millisecond) // let the stage-1 worker park on the gate
	bad := getFrame("boom")
	good := getFrame("good")
	if !r.Submit(bad) || !r.Submit(good) {
		t.Fatal("Submit rejected")
	}
	close(st.gate)
	collectFrames(t, done, 3)

	if !bad.Err {
		t.Fatal("poisoned frame not marked Err")
	}
	if good.Err {
		t.Fatal("healthy batchmate marked Err")
	}
	if good.Resps[0].Status != proto.StatusOK || string(good.Resps[0].Value) != "ok" {
		t.Fatalf("batchmate GET = %+v, want OK", good.Resps[0])
	}
	if s := r.Stats(); s.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", s.Panics)
	}
}

// TestLiveRunnerCloseDrains checks Close seals and executes the pending
// partial batch rather than dropping its frames.
func TestLiveRunnerCloseDrains(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	st.gateKey = "hold"
	st.gate = make(chan struct{})
	done := make(chan *LiveFrame, 4)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: cpuInsertMegaKV(), n: 1 << 20},
		BatchInterval: time.Hour, // the flusher will not help; Close must
		Done:          func(f *LiveFrame) { done <- f },
	})
	// Park stage 1 on a gated SET so f below is still pending when Close
	// runs (an idle pipeline would seal it immediately).
	if !r.Submit(setFrame("hold", "x")) {
		t.Fatal("Submit hold rejected")
	}
	time.Sleep(time.Millisecond) // let the stage-1 worker park on the gate
	f := getFrame("k")
	if !r.Submit(f) {
		t.Fatal("Submit rejected")
	}
	time.AfterFunc(50*time.Millisecond, func() { close(st.gate) })
	r.Close()
	if got := len(done); got != 2 {
		t.Fatalf("Close returned with %d/2 frames delivered", got)
	}
	if f.Resps[0].Status != proto.StatusOK {
		t.Fatalf("GET after Close = %+v, want OK", f.Resps[0])
	}
	if r.Submit(getFrame("k")) {
		t.Fatal("Submit accepted after Close")
	}
}

// TestLiveRunnerProfileMeasured checks completed batches carry a measured
// workload profile (the adaptation loop's input).
func TestLiveRunnerProfileMeasured(t *testing.T) {
	st := newFakeLiveStore()
	st.m["aa"] = []byte("vvvv")
	var mu sync.Mutex
	var prof *Batch
	done := make(chan *LiveFrame, 4)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 4},
		BatchInterval: time.Hour,
		Done:          func(f *LiveFrame) { done <- f },
		OnBatchDone: func(b *Batch) {
			mu.Lock()
			cp := *b
			prof = &cp
			mu.Unlock()
		},
	})
	defer r.Close()

	f := &LiveFrame{
		Queries: []proto.Query{
			{Op: proto.OpGet, Key: []byte("aa")},
			{Op: proto.OpGet, Key: []byte("aa")},
			{Op: proto.OpGet, Key: []byte("zz")},
			{Op: proto.OpSet, Key: []byte("bb"), Value: []byte("vvvv")},
		},
		ParseNanos: 1000,
	}
	if !r.Submit(f) {
		t.Fatal("Submit rejected")
	}
	collectFrames(t, done, 1)
	r.Close() // settle OnBatchDone: complete() runs it after delivery

	mu.Lock()
	defer mu.Unlock()
	if prof == nil {
		t.Fatal("OnBatchDone never ran")
	}
	p := prof.Profile
	if p.N != 4 {
		t.Fatalf("Profile.N = %d, want 4", p.N)
	}
	if p.GetRatio != 0.75 {
		t.Fatalf("Profile.GetRatio = %v, want 0.75", p.GetRatio)
	}
	if p.KeySize != 2 {
		t.Fatalf("Profile.KeySize = %v, want 2", p.KeySize)
	}
	if p.ValueSize != 4 {
		t.Fatalf("Profile.ValueSize = %v, want 4 (hits+sets averaged)", p.ValueSize)
	}
	if p.RVUnitNanos != 250 {
		t.Fatalf("Profile.RVUnitNanos = %v, want 1000ns/4 queries", p.RVUnitNanos)
	}
	if prof.Hits != 2 || prof.Misses != 1 {
		t.Fatalf("Hits/Misses = %d/%d, want 2/1", prof.Hits, prof.Misses)
	}
	if p.SDUnitNanos <= 0 {
		t.Fatalf("Profile.SDUnitNanos = %v, want measured > 0", p.SDUnitNanos)
	}
}
