package pipeline

import (
	"sync"
	"testing"
	"time"
)

// TestLiveIdleSealBusyWorkerCoalesces is the regression test for the stage-1
// idle-detection race: an earlier runner decided "stage 1 is idle" from a
// busy flag the worker set only after its channel receive returned, so frames
// submitted in that window sealed as degenerate one-frame batches while the
// worker was actually executing. The testStage1Dequeued hook parks the worker
// right after it took a batch; the frames submitted meanwhile must coalesce
// into ONE follow-up batch (2 batches total).
func TestLiveIdleSealBusyWorkerCoalesces(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	done := make(chan *LiveFrame, 8)
	r := NewLiveRunner(st, LiveOptions{
		Provider:  &fixedProvider{cfg: MegaKV(), n: 1 << 20}, // size never seals
		DoneBatch: deliverTo(done),
	})
	defer r.Close()

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	// Set before any Submit: the worker reads the hook only after take
	// returns a batch, and r.mu orders that read after this write.
	r.testStage1Dequeued = func() {
		entered <- struct{}{}
		<-release
	}

	f1 := getFrame("k")
	if !r.Submit(f1) {
		t.Fatal("Submit f1 rejected")
	}
	select {
	case <-entered: // worker took f1's batch and is parked
	case <-time.After(5 * time.Second):
		t.Fatal("stage-1 worker never took the first batch")
	}

	f2, f3 := getFrame("k"), getFrame("k")
	if !r.Submit(f2) || !r.Submit(f3) {
		t.Fatal("Submit f2/f3 rejected")
	}
	close(release)

	collectFrames(t, done, 3)
	r.Close() // settle counters
	if s := r.Stats(); s.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 ({f1} then coalesced {f2,f3}); "+
			"3 means a busy stage 1 sealed a degenerate singleton", s.Batches)
	}
}

// TestLiveSealReadyBeforePending pins the seal contract around the ready
// list: batches sealed at the size target run before the pending batch and
// in seal order; a frame that finds batches ready and nothing pending is
// accepted and opens the pending batch (the runner never sheds); Close
// drains both the ready batches and the pending one; and Submit reports
// false only after Close.
func TestLiveSealReadyBeforePending(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	done := make(chan *LiveFrame, 16)
	var obMu sync.Mutex
	var seqs []uint64
	r := NewLiveRunner(st, LiveOptions{
		Provider:  &fixedProvider{cfg: MegaKV(), n: 2}, // a two-GET frame seals at Submit
		DoneBatch: deliverTo(done),
		OnBatchDone: func(b *Batch) {
			obMu.Lock()
			seqs = append(seqs, b.Seq)
			obMu.Unlock()
		},
	})
	defer r.Close()

	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	r.testStage1Dequeued = func() {
		entered <- struct{}{}
		<-release
	}
	waitTake := func() {
		t.Helper()
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("stage-1 worker never took a batch")
		}
	}

	hold := getFrame("k")
	if !r.Submit(hold) {
		t.Fatal("Submit hold rejected")
	}
	waitTake() // stage 1 took {hold} and is parked

	const readyN = 4
	var full []*LiveFrame
	for i := 0; i < readyN; i++ {
		f := getFrame("k", "k")
		if !r.Submit(f) {
			t.Fatalf("Submit ready frame %d rejected", i)
		}
		full = append(full, f)
	}
	lone := getFrame("k") // readyN batches wait and none is pending
	if !r.Submit(lone) {
		t.Fatal("Submit rejected a frame with batches ready and nothing pending")
	}
	r.mu.Lock()
	nReady, opened := len(r.ready), r.pending != nil
	r.mu.Unlock()
	if nReady != readyN || !opened {
		t.Fatalf("after the lone frame: %d ready, pending open = %v; want %d ready and the lone frame pending",
			nReady, opened, readyN)
	}

	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	for {
		r.mu.Lock()
		c := r.closed
		r.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if r.Submit(getFrame("k")) {
		t.Fatal("Submit accepted a frame after Close")
	}

	want := append(append([]*LiveFrame{hold}, full...), lone)
	got := collectFrames(t, done, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d is not the frame submitted %d-th: ready batches must run before the pending one, in seal order", i, i)
		}
	}
	obMu.Lock()
	defer obMu.Unlock()
	if len(seqs) != readyN+2 {
		t.Fatalf("completed %d batches, want %d", len(seqs), readyN+2)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("batch %d has Seq %d: seqs %v are not dense and in order", i, s, seqs)
		}
	}
}
