package pipeline

import (
	"sync"
	"testing"
	"time"
)

// TestLiveIdleSealBusyWorkerCoalesces is the regression test for the stage-1
// idle-detection race: the old code marked the worker busy only after
// <-r.ch[0] returned, so between the dequeue and the busy-flag increment both
// Submit and trySealIdle observed len(ch[0])==0 && busy==0 and sealed
// degenerate one-frame batches while the worker was actually executing. The
// testStage1Dequeued hook parks the worker exactly in that historical window;
// with seal-time inflight accounting the frames submitted during the window
// must coalesce into ONE follow-up batch (2 batches total). Under the old
// dequeue-then-mark accounting this test fails with 3 batches, because the
// first frame submitted during the window seals alone.
func TestLiveIdleSealBusyWorkerCoalesces(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	done := make(chan *LiveFrame, 8)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 1 << 20}, // size never seals
		BatchInterval: time.Hour,                                 // the tick never seals
		DoneBatch:     deliverTo(done),
	})
	defer r.Close()

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	// Set before any Submit: the worker reads the hook only after receiving a
	// batch, and the channel send/recv orders that read after this write.
	r.testStage1Dequeued = func() {
		entered <- struct{}{}
		<-release
	}

	f1 := getFrame("k")
	if !r.Submit(f1) {
		t.Fatal("Submit f1 rejected")
	}
	select {
	case <-entered: // worker dequeued f1's batch and is "busy" pre-mark
	case <-time.After(5 * time.Second):
		t.Fatal("stage-1 worker never dequeued the first batch")
	}

	// The race window: queue empty, worker busy but (in the old code) not yet
	// marked. These must accumulate, not seal as one-frame batches.
	f2, f3 := getFrame("k"), getFrame("k")
	if !r.Submit(f2) || !r.Submit(f3) {
		t.Fatal("Submit f2/f3 rejected")
	}
	close(release)

	collectFrames(t, done, 3)
	r.Close() // settle counters
	if s := r.Stats(); s.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 ({f1} then coalesced {f2,f3}); "+
			"3 means the idle-detection race sealed a degenerate singleton", s.Batches)
	}
}

// TestLiveTrySealIdleRevertClearsStamps pins trySealIdle's revert path: when
// the sealed batch loses its queue slot, the revert must restore a batch
// indistinguishable from never-sealed — seq rolled back (numbers stay dense),
// inflight rolled back, and the Seq/Config/lastStage/sealedAt stamps cleared
// so the eventual real seal restamps them and Batch.Wall is measured from the
// FINAL seal, not the aborted one. Under seal-time inflight accounting the
// lost-slot condition cannot arise naturally (inflight==0 implies the queue
// is empty), so the test manufactures it white-box: two uncounted batches
// occupy the worker and the cap-1 queue while inflight reads zero.
func TestLiveTrySealIdleRevertClearsStamps(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	done := make(chan *LiveFrame, 8)
	var obMu sync.Mutex
	var obs []Batch
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 1 << 20},
		BatchInterval: time.Hour,
		MaxPending:    1, // cap-1 stage-1 queue: one injected batch fills it
		DoneBatch:     deliverTo(done),
		OnBatchDone: func(b *Batch) {
			obMu.Lock()
			obs = append(obs, *b)
			obMu.Unlock()
		},
	})
	defer r.Close()

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	r.testStage1Dequeued = func() {
		entered <- struct{}{}
		<-release
	}

	// Two dummy batches injected around sealLocked, so stage1Inflight stays 0
	// (the manufactured inconsistency): the first parks the worker in the
	// hook, the second keeps the queue full.
	inject := func(key string) {
		b := r.pool.Get().(*liveBatch)
		b.reset()
		f := getFrame(key)
		b.frameOff = append(b.frameOff, 0)
		b.frames = append(b.frames, f)
		b.nq = len(f.Queries)
		b.firstAt = time.Now()
		r.ch[0] <- b
	}
	inject("k")
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the injected batch")
	}
	inject("k") // queue now full, worker busy, inflight still 0

	// Build the pending batch by hand (Submit would try to dispatch and block
	// on the full queue).
	r.mu.Lock()
	pb := r.pool.Get().(*liveBatch)
	pb.reset()
	pf := getFrame("k")
	pb.frameOff = append(pb.frameOff, 0)
	pb.frames = append(pb.frames, pf)
	pb.nq = len(pf.Queries)
	pb.firstAt = time.Now()
	r.pending = pb
	seq0 := r.seq
	r.mu.Unlock()

	r.trySealIdle() // seals, loses the slot to the full queue, must revert

	r.mu.Lock()
	if r.pending != pb {
		t.Fatal("revert did not restore the pending batch")
	}
	if r.seq != seq0 {
		t.Fatalf("seq = %d after revert, want %d (numbers stay dense)", r.seq, seq0)
	}
	if pb.b.Seq != 0 || pb.b.Config != (Config{}) || pb.lastStage != 0 || !pb.sealedAt.IsZero() {
		t.Fatalf("revert left stamps: Seq=%d Config=%v lastStage=%d sealedAt=%v",
			pb.b.Seq, pb.b.Config, pb.lastStage, pb.sealedAt)
	}
	if got := r.stage1Inflight.Load(); got != 0 {
		t.Fatalf("stage1Inflight = %d after revert, want 0", got)
	}
	r.mu.Unlock()

	// A real seal only happens after the dummies drain; if Wall were measured
	// from the aborted seal it would include this whole gap.
	const gap = 60 * time.Millisecond
	time.Sleep(gap)

	// Pre-compensate the two decrements the uncounted dummies will cause when
	// they leave stage 1, then let everything drain: the worker's post-batch
	// trySealIdle re-seals the reverted batch for real.
	r.stage1Inflight.Add(2)
	close(release)
	collectFrames(t, done, 3)

	// One more normal submit: its batch must take the next dense seq.
	f2 := getFrame("k")
	if !r.Submit(f2) {
		t.Fatal("Submit f2 rejected")
	}
	collectFrames(t, done, 1)
	r.Close()

	// The injected dummies were never sealed, so only properly sealed batches
	// carry a non-zero Config; their seq numbers must be dense from seq0.
	obMu.Lock()
	defer obMu.Unlock()
	var sealed []Batch
	for _, b := range obs {
		if b.Config != (Config{}) {
			sealed = append(sealed, b)
		}
	}
	if len(sealed) != 2 {
		t.Fatalf("sealed batches observed = %d, want 2", len(sealed))
	}
	for i, b := range sealed {
		if b.Seq != seq0+uint64(i) {
			t.Fatalf("sealed batch %d has Seq %d, want %d (dense after revert)", i, b.Seq, seq0+uint64(i))
		}
	}
	if sealed[0].Wall >= gap {
		t.Fatalf("Wall = %v, want < %v: Wall must be measured from the final seal, not the aborted one", sealed[0].Wall, gap)
	}
}
