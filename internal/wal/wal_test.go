package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// collect gathers replayed records for assertions.
type collect struct {
	sets    [][2][]byte
	dels    [][]byte
	replies []replayedReply
}

type replayedReply struct {
	addr   string
	id     uint64
	frames [][]byte
}

func (c *collect) handler() Handler {
	return Handler{
		Set: func(k, v []byte) {
			c.sets = append(c.sets, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
		},
		Delete: func(k []byte) { c.dels = append(c.dels, append([]byte(nil), k...)) },
		Reply: func(addr []byte, id uint64, frames [][]byte) {
			r := replayedReply{addr: string(addr), id: id}
			for _, f := range frames {
				r.frames = append(r.frames, append([]byte(nil), f...))
			}
			c.replies = append(c.replies, r)
		},
	}
}

func sampleBatch() ([]byte, int) {
	var buf []byte
	buf = AppendSet(buf, []byte("key1"), []byte("value-one"))
	buf = AppendSet(buf, []byte("key2"), bytes.Repeat([]byte("x"), 300))
	buf = AppendDelete(buf, []byte("key1"))
	buf = AppendReply(buf, "10.0.0.1:5311", 42, [][]byte{[]byte("frameA"), []byte("frameB")})
	return buf, 4
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	buf, n := sampleBatch()
	if err := l.Commit(buf, n); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != 4 || st.Bytes != uint64(len(buf)) || st.Syncs == 0 {
		t.Fatalf("stats after commit: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(buf, n); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}

	var c collect
	valid, recs, err := ReplayFile(path, c.handler())
	if err != nil || recs != 4 {
		t.Fatalf("replay: valid=%d recs=%d err=%v", valid, recs, err)
	}
	if fi, _ := os.Stat(path); fi.Size() != valid {
		t.Fatalf("valid prefix %d != file size %d", valid, fi.Size())
	}
	if len(c.sets) != 2 || string(c.sets[0][0]) != "key1" || string(c.sets[0][1]) != "value-one" {
		t.Fatalf("sets: %v", c.sets)
	}
	if len(c.dels) != 1 || string(c.dels[0]) != "key1" {
		t.Fatalf("dels: %v", c.dels)
	}
	if len(c.replies) != 1 || c.replies[0].addr != "10.0.0.1:5311" || c.replies[0].id != 42 ||
		len(c.replies[0].frames) != 2 || string(c.replies[0].frames[1]) != "frameB" {
		t.Fatalf("replies: %+v", c.replies)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	valid, recs, err := ReplayFile(filepath.Join(t.TempDir(), "nope.log"), Handler{})
	if valid != 0 || recs != 0 || err != nil {
		t.Fatalf("missing file: %d %d %v", valid, recs, err)
	}
}

// TestTornTailRecoversPrefix chops the log at every possible byte boundary:
// replay must recover exactly the records whose frames fit, never error or
// panic, and report a valid prefix that re-replays identically.
func TestTornTailRecoversPrefix(t *testing.T) {
	buf, _ := sampleBatch()
	// Record boundaries for expected-count computation.
	var bounds []int
	off := 0
	for off < len(buf) {
		n := int(uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24)
		off += headerSize + n
		bounds = append(bounds, off)
	}
	for cut := 0; cut <= len(buf); cut++ {
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		var c collect
		valid, recs := Replay(buf[:cut], c.handler())
		if recs != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, recs, want)
		}
		if valid > cut {
			t.Fatalf("cut=%d: valid prefix %d beyond input", cut, valid)
		}
		if v2, r2 := Replay(buf[:valid], Handler{}); v2 != valid || r2 != recs {
			t.Fatalf("cut=%d: prefix not stable: %d/%d vs %d/%d", cut, valid, recs, v2, r2)
		}
	}
}

// TestCorruptMiddleStopsReplay flips one byte in the second record: replay
// keeps the first record and stops.
func TestCorruptMiddleStopsReplay(t *testing.T) {
	var buf []byte
	buf = AppendSet(buf, []byte("a"), []byte("1"))
	first := len(buf)
	buf = AppendSet(buf, []byte("b"), []byte("2"))
	buf = AppendSet(buf, []byte("c"), []byte("3"))
	buf[first+headerSize] ^= 0xff
	var c collect
	valid, recs := Replay(buf, c.handler())
	if recs != 1 || valid != first {
		t.Fatalf("corrupt middle: valid=%d recs=%d (first record ends at %d)", valid, recs, first)
	}
}

// countingFile counts writes and syncs and records the size covered by the
// last sync, standing in for a real file.
type countingFile struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	syncs     int
	syncedAt  int
	maxWrite  int           // when >0, writes at most this many bytes per call
	syncDelay time.Duration // artificial fsync latency
	// writeErrs > 0: the next writeErrs calls fail with zero progress.
	writeErrs int
	// tornWrite: the next call persists 3 bytes (short write), every call
	// after that fails with zero progress — a torn record.
	tornWrite bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tornWrite {
		f.tornWrite = false
		f.writeErrs = 1 << 30
		n := 3
		if n > len(p) {
			n = len(p)
		}
		f.buf.Write(p[:n])
		return n, io.ErrShortWrite
	}
	if f.writeErrs > 0 {
		f.writeErrs--
		return 0, errors.New("injected write error")
	}
	n := len(p)
	if f.maxWrite > 0 && n > f.maxWrite {
		n = f.maxWrite
		f.buf.Write(p[:n])
		return n, io.ErrShortWrite
	}
	f.buf.Write(p)
	return n, nil
}

func (f *countingFile) Sync() error {
	f.mu.Lock()
	d := f.syncDelay
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d) // a real fsync takes time; lets committers pile up
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	f.syncedAt = f.buf.Len()
	return nil
}

func (f *countingFile) Close() error { return nil }

func openCounting(t *testing.T, policy SyncPolicy, interval time.Duration) (*Log, *countingFile) {
	t.Helper()
	cf := &countingFile{}
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{
		Policy:   policy,
		Interval: interval,
		OpenFile: func(string) (File, error) { return cf, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, cf
}

// TestGroupCommit runs many concurrent committers under SyncBatch: every
// record must be durable on return, yet the fsync count stays well below the
// commit count because committers share the leader's fsync.
func TestGroupCommit(t *testing.T) {
	l, cf := openCounting(t, SyncBatch, 0)
	cf.syncDelay = 200 * time.Microsecond
	const goroutines = 8
	const commits = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				rec := AppendSet(nil, []byte(fmt.Sprintf("g%d-%d", g, i)), []byte("v"))
				if err := l.Commit(rec, 1); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cf.mu.Lock()
	data := append([]byte(nil), cf.buf.Bytes()...)
	syncs := cf.syncs
	syncedAt := cf.syncedAt
	cf.mu.Unlock()
	valid, recs := Replay(data, Handler{})
	if recs != goroutines*commits || valid != len(data) {
		t.Fatalf("replayed %d/%d records, valid %d/%d bytes", recs, goroutines*commits, valid, len(data))
	}
	if syncedAt != len(data) {
		t.Fatalf("close left %d of %d bytes unsynced", len(data)-syncedAt, len(data))
	}
	if syncs >= goroutines*commits {
		t.Fatalf("no group commit: %d fsyncs for %d commits", syncs, goroutines*commits)
	}
}

// TestShortWriteRetried: a file that persists at most 3 bytes per call (with
// io.ErrShortWrite) still commits whole records via the retry loop.
func TestShortWriteRetried(t *testing.T) {
	l, cf := openCounting(t, SyncBatch, 0)
	rec := AppendSet(nil, []byte("short"), []byte("write-retry-value"))
	cf.maxWrite = 3
	if err := l.Commit(rec, 1); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.ShortWrites == 0 {
		t.Fatal("short writes not counted")
	}
	if _, recs := Replay(cf.buf.Bytes(), Handler{}); recs != 1 {
		t.Fatalf("record not intact after short writes: %d", recs)
	}
}

// TestZeroProgressWriteRetryable: a write failure with no bytes written
// leaves the file at a record boundary; the commit fails (its ack is
// dropped) but the log stays usable. The failed commit's record stays
// staged, so the next convoy's flush persists it alongside the new record —
// harmless, because the unacked client retries an idempotent operation.
func TestZeroProgressWriteRetryable(t *testing.T) {
	l, cf := openCounting(t, SyncBatch, 0)
	rec := AppendSet(nil, []byte("k"), []byte("v"))
	cf.writeErrs = 1
	if err := l.Commit(rec, 1); err == nil {
		t.Fatal("commit succeeded through injected write error")
	}
	if err := l.Commit(rec, 1); err != nil {
		t.Fatalf("clean zero-progress failure should be retryable: %v", err)
	}
	if _, recs := Replay(cf.buf.Bytes(), Handler{}); recs != 2 {
		t.Fatalf("want both records (failed commit restaged + retry) after retry, got %d", recs)
	}
}

// TestTornWriteSticky: progress then a zero-progress failure mid-record tears
// the tail; the log must refuse further commits rather than append after
// garbage.
func TestTornWriteSticky(t *testing.T) {
	l, cf := openCounting(t, SyncBatch, 0)
	if err := l.Commit(AppendSet(nil, []byte("ok"), []byte("1")), 1); err != nil {
		t.Fatal(err)
	}
	cf.mu.Lock()
	cf.tornWrite = true
	cf.mu.Unlock()
	rec := AppendSet(nil, []byte("torn"), []byte("record"))
	if err := l.Commit(rec, 1); err == nil {
		t.Fatal("commit succeeded through torn write")
	}
	cf.mu.Lock()
	cf.writeErrs = 0 // underlying file "recovers"...
	cf.mu.Unlock()
	if err := l.Commit(rec, 1); err == nil {
		t.Fatal("log accepted a commit after a torn tail")
	}
	if st := l.Stats(); st.WriteErrs == 0 {
		t.Fatal("write error not counted")
	}
	// The already-persisted prefix (first record + 3 torn bytes) still
	// replays to exactly the intact record.
	cf.mu.Lock()
	data := append([]byte(nil), cf.buf.Bytes()...)
	cf.mu.Unlock()
	if _, recs := Replay(data, Handler{}); recs != 1 {
		t.Fatalf("want 1 intact record before the tear, got %d", recs)
	}
}

func TestIntervalSync(t *testing.T) {
	l, cf := openCounting(t, SyncInterval, time.Millisecond)
	rec := AppendSet(nil, []byte("iv"), []byte("v"))
	if err := l.Commit(rec, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		cf.mu.Lock()
		done := cf.syncedAt == cf.buf.Len() && cf.syncs > 0
		cf.mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval fsync goroutine never synced the tail")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

// TestSyncOffCloseSyncsTail: with fsync disabled during serving, Close still
// makes the tail durable (the graceful-drain guarantee).
func TestSyncOffCloseSyncsTail(t *testing.T) {
	l, cf := openCounting(t, SyncOff, 0)
	rec := AppendSet(nil, []byte("off"), []byte("v"))
	if err := l.Commit(rec, 1); err != nil {
		t.Fatal(err)
	}
	cf.mu.Lock()
	if cf.syncs != 0 {
		cf.mu.Unlock()
		t.Fatal("SyncOff fsynced during serving")
	}
	cf.mu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.syncs == 0 || cf.syncedAt != cf.buf.Len() {
		t.Fatalf("close did not sync the tail: syncs=%d syncedAt=%d len=%d", cf.syncs, cf.syncedAt, cf.buf.Len())
	}
}

func TestRotate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	old := filepath.Join(dir, "wal.old")
	l, err := Open(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(AppendSet(nil, []byte("before"), []byte("1")), 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(old); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(AppendSet(nil, []byte("after"), []byte("2")), 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var co, cn collect
	if _, recs, _ := ReplayFile(old, co.handler()); recs != 1 || string(co.sets[0][0]) != "before" {
		t.Fatalf("old segment: %d records %v", recs, co.sets)
	}
	if _, recs, _ := ReplayFile(path, cn.handler()); recs != 1 || string(cn.sets[0][0]) != "after" {
		t.Fatalf("new segment: %d records %v", recs, cn.sets)
	}
	if st := l.Stats(); st.Rotations != 1 {
		t.Fatalf("rotations = %d", st.Rotations)
	}
}

// TestRotateUnderCommits rotates while committers run; every committed record
// must land in exactly one of the two segments.
func TestRotateUnderCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	old := filepath.Join(dir, "wal.old")
	l, err := Open(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := l.Commit(AppendSet(nil, []byte(fmt.Sprintf("k%03d", i)), []byte("v")), 1); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()
	time.Sleep(time.Millisecond)
	if err := l.Rotate(old); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	h := Handler{Set: func(k, _ []byte) { seen[string(k)]++ }}
	ReplayFile(old, h)  //nolint:errcheck
	ReplayFile(path, h) //nolint:errcheck
	if len(seen) != n {
		t.Fatalf("recovered %d/%d keys across segments", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %s appears %d times", k, c)
		}
	}
}
