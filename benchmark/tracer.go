package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request frame share its
// frame number; Parent is the index of the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // -1 for a root
	Frame  int32  `json:"frame"`  // -1 for work that belongs to a whole batch
}

// tracer records spans in memory; they are written out when the run ends.
// A nil tracer records nothing and costs a nil check, which is how the same
// replay runs untraced for the overhead comparison. Spans opened on one
// goroutine nest by a stack; record adds a root span whose times the caller
// took itself (a frame in flight across goroutines).
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

// newTracer sizes the span store for a whole replay up front, so that growing
// it is not billed to whichever span happens to be open.
func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 2*replayQueries)}
}

func (t *tracer) begin(name string, frame int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Frame: int32(frame)})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) record(name string, frame int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: -1, Frame: int32(frame),
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// selfTimes sums, per span name, each span's duration minus the part of that
// interval its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// spanCounts counts spans per name.
func spanCounts(spans []span) map[string]int {
	n := map[string]int{}
	for _, s := range spans {
		n[s.Name]++
	}
	return n
}
