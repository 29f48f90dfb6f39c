package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/proto"
)

// replyDeadline is how long a frame may wait for its reply before its queries
// count as failed. Nothing is resent in the measured phase. One second, not
// the 200 ms first proposed: about one run in sixty on this shared host sees
// the server frozen for 250 to 300 ms (every frame in flight, on any workload),
// which is a latency the percentiles report, not a lost operation.
const replyDeadline = time.Second

// preloadDeadline is the same for the preload, where a stall is set-up time
// and not a failed operation: loading a million keys into an empty store makes
// the server's collector and first-touch page faults stall it for long.
const preloadDeadline = 5 * time.Second

// sliceDur is the granularity the throughput time series is recorded at. The
// server's collector halves throughput for 0.2 to 1 s at a time; slices this
// fine show those cycles in the run record.
const sliceDur = 50 * time.Millisecond

// tally is what one receiver observed. Each receiver owns one; they are
// merged after the goroutines have exited.
type tally struct {
	measureFrom, measureTo time.Duration // offsets from the run start

	slices []uint64  // verified queries completed per slice of the measured phase
	latUS  []float64 // round trip of each measured frame, µs
	done   uint64    // verified queries of measured frames
	failed uint64    // failed queries of measured frames

	gets, hits, sets, scans, scanEntries uint64
	timeouts, busy, errs, mismatches     uint64
	strays                               uint64 // replies for a frame already given up on
	firstFailure                         string
}

func newTally(from, to time.Duration) *tally {
	n := int((to - from + sliceDur - 1) / sliceDur)
	if n < 0 {
		n = 0
	}
	return &tally{measureFrom: from, measureTo: to, slices: make([]uint64, n)}
}

// measured reports whether a frame sent at the given offset counts.
func (t *tally) measured(sent time.Duration) bool {
	return sent >= t.measureFrom && sent < t.measureTo
}

// fail books n failed queries of one kind. Only measured frames name the
// run's first failure: a shed frame during the ramp is not the run's verdict.
func (t *tally) fail(measured bool, kind *uint64, n int, format string, args ...any) {
	*kind += uint64(n)
	if measured && t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// frameDone books one completed frame: ok of its nq queries verified, it was
// sent at sent (or was due then, in the open loop) and completed at now.
func (t *tally) frameDone(sent, now time.Duration, nq, ok int) {
	if !t.measured(sent) {
		return
	}
	t.done += uint64(ok)
	t.failed += uint64(nq - ok)
	t.latUS = append(t.latUS, float64(now-sent)/float64(time.Microsecond))
	if i := int((now - t.measureFrom) / sliceDur); i >= 0 && i < len(t.slices) {
		t.slices[i] += uint64(ok)
	}
}

func (t *tally) merge(o *tally) {
	for i := range o.slices {
		t.slices[i] += o.slices[i]
	}
	t.latUS = append(t.latUS, o.latUS...)
	t.done += o.done
	t.failed += o.failed
	t.gets += o.gets
	t.hits += o.hits
	t.sets += o.sets
	t.scans += o.scans
	t.scanEntries += o.scanEntries
	t.timeouts += o.timeouts
	t.busy += o.busy
	t.errs += o.errs
	t.mismatches += o.mismatches
	t.strays += o.strays
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// verify checks one reply against the query that caused it and reports
// whether the query counts as served. A GET miss is a served query: whether
// misses are acceptable is the hit-rate band's call, not this function's.
func (t *tally) verify(w *workloadSpec, q proto.Query, rank uint64, r proto.Response, count bool) bool {
	switch r.Status {
	case proto.StatusBusy:
		t.fail(count, &t.busy, 1, "%v rank %d: StatusBusy", q.Op, rank)
		return false
	case proto.StatusOK, proto.StatusNotFound:
	default:
		t.fail(count, &t.errs, 1, "%v rank %d: status %d %q", q.Op, rank, r.Status, r.Value)
		return false
	}
	switch q.Op {
	case proto.OpGet:
		if count {
			t.gets++
		}
		if r.Status == proto.StatusNotFound {
			return true
		}
		if !checkValue(r.Value, rank, w.valSize) {
			t.fail(count, &t.mismatches, 1, "GET rank %d: value mismatch (%d bytes)", rank, len(r.Value))
			return false
		}
		if count {
			t.hits++
		}
	case proto.OpSet:
		if r.Status != proto.StatusOK {
			t.fail(count, &t.errs, 1, "SET rank %d: not stored", rank)
			return false
		}
		if count {
			t.sets++
		}
	case proto.OpScan:
		if r.Status != proto.StatusOK {
			t.fail(count, &t.errs, 1, "SCAN rank %d: status %d", rank, r.Status)
			return false
		}
		n, why := checkScanPage(w, q.Key, r.Value)
		if why != "" {
			t.fail(count, &t.mismatches, 1, "SCAN rank %d: %s", rank, why)
			return false
		}
		if count {
			t.scans++
			t.scanEntries += uint64(n)
		}
	}
	return true
}

// checkScanPage checks one SCAN result block: at most scanLimit entries,
// strictly ascending, none before start, every key one of this stream's and
// every value the value of its key.
func checkScanPage(w *workloadSpec, start, block []byte) (entries int, why string) {
	var prev []byte
	n, err := proto.DecodeScanResult(block, func(key, val []byte) bool {
		entries++
		switch {
		case bytes.Compare(key, start) < 0:
			why = "entry before the scan start"
		case prev != nil && bytes.Compare(key, prev) <= 0:
			why = "entries not ascending"
		default:
			rank, ok := keyRank(key)
			if !ok || len(key) != w.keySize {
				why = "entry key is not one of the stream's"
			} else if !checkValue(val, rank, w.valSize) {
				why = fmt.Sprintf("entry rank %d: value mismatch", rank)
			}
		}
		prev = key // aliases block, which outlives the walk
		return why == ""
	})
	switch {
	case err != nil:
		return 0, err.Error()
	case why != "":
		return entries, why
	case n > scanLimit:
		return n, fmt.Sprintf("%d entries, limit %d", n, scanLimit)
	}
	return n, ""
}
