package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/proto"
)

// wideGetFrame builds one frame with n GET queries over the key space.
func wideGetFrame(n int) *LiveFrame {
	f := &LiveFrame{}
	for i := 0; i < n; i++ {
		f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("k%03d", i%40))})
	}
	return f
}

func runWideBatch(t *testing.T, st LiveStore, cfg Config, ngets int) []*LiveFrame {
	t.Helper()
	done := make(chan *LiveFrame, 8)
	r := NewLiveRunner(st, LiveOptions{
		Provider: &fixedProvider{cfg: cfg, n: 1},
		Done:     func(f *LiveFrame) { done <- f },
	})
	r.Submit(wideGetFrame(ngets))
	frames := collectFrames(t, done, 1)
	r.Close()
	return frames
}

// TestLiveWideReadPath: with a separate search stage (MegaKV) a batch's GETs
// must be served by exactly one SearchBatch and one ReadCandidatesBatch call,
// with the right per-query responses scattered back.
func TestLiveWideReadPath(t *testing.T) {
	st := newFakeLiveStore()
	for i := 0; i < 40; i += 2 { // even keys present, odd keys miss
		st.m[fmt.Sprintf("k%03d", i)] = []byte(fmt.Sprintf("v%03d", i))
	}
	frames := runWideBatch(t, st, MegaKV(), 64)
	if got := [3]int32{st.searchBatches.Load(), st.readBatches.Load(), st.getBatches.Load()}; got != [3]int32{1, 1, 0} {
		t.Fatalf("SearchBatch/ReadCandidatesBatch/GetBatch calls = %v, want [1 1 0]", got)
	}
	f := frames[0]
	if len(f.Resps) != 64 {
		t.Fatalf("resps = %d, want 64", len(f.Resps))
	}
	for i, resp := range f.Resps {
		k := i % 40
		if k%2 == 0 {
			want := fmt.Sprintf("v%03d", k)
			if resp.Status != proto.StatusOK || string(resp.Value) != want {
				t.Fatalf("resp %d = %v %q, want OK %q", i, resp.Status, resp.Value, want)
			}
		} else if resp.Status != proto.StatusNotFound {
			t.Fatalf("resp %d = %v, want NotFound", i, resp.Status)
		}
	}
}

// TestLiveWideFusedGetBatch: a single-stage config fuses search into the read
// (search skip), so the batch must be read by GetBatch, not SearchBatch.
func TestLiveWideFusedGetBatch(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k000"] = []byte("v0")
	frames := runWideBatch(t, st, Config{GPUDepth: 0}, 48)
	if st.getBatches.Load() != 1 {
		t.Fatalf("GetBatch calls = %d, want 1", st.getBatches.Load())
	}
	if st.searchBatches.Load() != 0 {
		t.Fatalf("searchBatches = %d, want 0 under the fused config", st.searchBatches.Load())
	}
	if frames[0].Resps[0].Status != proto.StatusOK || string(frames[0].Resps[0].Value) != "v0" {
		t.Fatalf("resp 0 = %v %q", frames[0].Resps[0].Status, frames[0].Resps[0].Value)
	}
}

// TestLiveWidePanicPoisonsOnlyItsFrame: when a batched store call panics on
// one key, the phase reruns frame by frame through the same batched call, so
// only the frame holding that key is marked Err and every batchmate is
// answered — under both the split (ReadCandidatesBatch) and the fused
// (GetBatch) read.
func TestLiveWidePanicPoisonsOnlyItsFrame(t *testing.T) {
	for _, cfg := range []Config{MegaKV(), {GPUDepth: 0}} {
		st := newFakeLiveStore()
		st.m["k000"] = []byte("v0")
		st.panicOn = "bad"
		frames := []*LiveFrame{wideGetFrame(8), getFrame("k000", "bad"), wideGetFrame(8)}
		stats := runCoalesced(t, st, LiveOptions{Provider: &fixedProvider{cfg: cfg, n: 1 << 20}}, frames)
		if !frames[1].Err {
			t.Fatalf("%v: the frame holding the poisoned key is not marked Err", cfg)
		}
		for _, fi := range []int{0, 2} {
			f := frames[fi]
			if f.Err {
				t.Fatalf("%v: batchmate %d poisoned", cfg, fi)
			}
			if f.Resps[0].Status != proto.StatusOK || string(f.Resps[0].Value) != "v0" {
				t.Fatalf("%v: batchmate %d resp 0 = %v %q", cfg, fi, f.Resps[0].Status, f.Resps[0].Value)
			}
		}
		if stats.Panics != 1 {
			t.Fatalf("%v: Panics = %d, want 1", cfg, stats.Panics)
		}
		// The dummy batch, the failed batch-wide call, and one call per frame.
		wantReads := int32(1 + 1 + 3)
		if cfg.GPUDepth > 0 {
			// The search stage already poisoned frame 1. Its key is still in
			// the read stage's batch-wide call, which fails again and reruns
			// the two healthy frames only.
			wantReads = 1 + 1 + 2
			if got := st.searchBatches.Load(); got != 1+1+3 {
				t.Fatalf("%v: SearchBatch calls = %d, want 5", cfg, got)
			}
		}
		if got := st.readBatches.Load() + st.getBatches.Load(); got != wantReads {
			t.Fatalf("%v: batched read calls = %d, want %d", cfg, got, wantReads)
		}
	}
}

// TestLiveWideSeesSameBatchWrites: the intra-batch writes-before-reads
// contract must hold on the batched read path — a GET batched with a SET of
// the same key observes the new value.
func TestLiveWideSeesSameBatchWrites(t *testing.T) {
	st := newFakeLiveStore()
	done := make(chan *LiveFrame, 8)
	r := NewLiveRunner(st, LiveOptions{
		Provider: &fixedProvider{cfg: Config{GPUDepth: 0}, n: 100000},
		Done:     func(f *LiveFrame) { done <- f },
	})
	// One frame carrying the SET and 32 GETs of the same key, sealed as a
	// single batch.
	f := &LiveFrame{Queries: []proto.Query{{Op: proto.OpSet, Key: []byte("x"), Value: []byte("new")}}}
	for i := 0; i < 32; i++ {
		f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte("x")})
	}
	r.Submit(f)
	frames := collectFrames(t, done, 1)
	r.Close()
	for i, resp := range frames[0].Resps[1:] {
		if resp.Status != proto.StatusOK || string(resp.Value) != "new" {
			t.Fatalf("get %d = %v %q, want the same-batch SET's value", i, resp.Status, resp.Value)
		}
	}
	if st.getBatches.Load() == 0 {
		t.Fatal("fused batched read not engaged")
	}
}
