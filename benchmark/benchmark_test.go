package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

// These tests are fast and deterministic: no sockets, no server, no clock
// they do not control. The spawn/scrape path is covered by `run.sh -all
// -smoke`, outside `go test`.

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {1000000, 0.99999},
	}
	for _, c := range cases {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is 0")
	}
}

// The reference values are what Python's statistics.quantiles(v, n=4) gives.
func TestQuartileSpreadMatchesPythonExclusiveMethod(t *testing.T) {
	v := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19} // quartiles 11.75, 14.5, 17.25
	if got, want := quartileSpread(v), 5.5/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	v = []float64{1, 2, 4, 8} // quartiles 1.25, 3.0, 7.0
	if got, want := quartileSpread(v), 5.75/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestOpenScheduleIsAbsoluteAndLatenessNeverNegative(t *testing.T) {
	s := newOpenSchedule(3125)
	if s.period != 320*time.Microsecond {
		t.Fatalf("period = %v, want 320µs", s.period)
	}
	// Frame i is due at i×period whatever happened before: a stall does not
	// shift the frames after it.
	if got := s.due(3125); got != time.Second {
		t.Errorf("due(3125) = %v, want 1s", got)
	}
	if got := lateness(s.due(10), s.due(10)+75*time.Microsecond); got != 75*time.Microsecond {
		t.Errorf("lateness = %v, want 75µs", got)
	}
	if got := lateness(s.due(10), s.due(10)-time.Microsecond); got != 0 {
		t.Errorf("a frame cannot be early: lateness = %v", got)
	}
}

func TestTallyTimesOpenLoopFramesFromTheirDueTime(t *testing.T) {
	tl := newTally(time.Second, 3*time.Second)
	if want := int(2 * time.Second / sliceDur); len(tl.slices) != want {
		t.Fatalf("2 s at %v a slice: %d slices, want %d", sliceDur, len(tl.slices), want)
	}
	tl.frameDone(500*time.Millisecond, 600*time.Millisecond, 64, 64) // ramp: ignored
	tl.frameDone(time.Second, time.Second+300*time.Microsecond, 64, 64)
	tl.frameDone(1300*time.Millisecond, 1300*time.Millisecond+2*time.Millisecond, 64, 60)
	if tl.done != 124 || tl.failed != 4 {
		t.Errorf("done %d failed %d, want 124 and 4", tl.done, tl.failed)
	}
	if len(tl.latUS) != 2 || tl.latUS[0] != 300 || tl.latUS[1] != 2000 {
		t.Errorf("latencies %v, want [300 2000]", tl.latUS)
	}
	if a, b := tl.slices[0], tl.slices[int(300*time.Millisecond/sliceDur)]; a != 64 || b != 60 {
		t.Errorf("slices hold %d and %d, want 64 and 60", a, b)
	}
}

func TestValueCodecIsAFunctionOfTheKey(t *testing.T) {
	for _, n := range []int{8, 13, 64, 256} {
		v := make([]byte, n)
		putValue(v, 42)
		if !checkValue(v, 42, n) {
			t.Errorf("size %d: value does not check against its own rank", n)
		}
		if checkValue(v, 43, n) {
			t.Errorf("size %d: value checks against another rank", n)
		}
		if checkValue(v[:n-1], 42, n) {
			t.Errorf("size %d: short value accepted", n)
		}
		v[n-1] ^= 1
		if checkValue(v, 42, n) {
			t.Errorf("size %d: corrupted last byte accepted", n)
		}
	}
	key := make([]byte, 32)
	putKey(key, 7)
	if rank, ok := keyRank(key); !ok || rank != 7 {
		t.Errorf("keyRank = %d, %v", rank, ok)
	}
	key[20]++
	if _, ok := keyRank(key); ok {
		t.Error("a key with a foreign fill byte is not one of the stream's")
	}
}

func TestSameSeedSameStreamOtherSeedOtherStream(t *testing.T) {
	hashOf := func(name string, seed int64) uint64 {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w.population = 10_000 // the zipf table is built per stream
		s := newOpStream(&w, seed)
		f := newFrameBuf(&w, w.frameQueries)
		for i := 0; i < 40; i++ {
			s.fill(f)
		}
		return s.hash()
	}
	for _, name := range []string{"udp-get-zipf", "udp-scan-mix", "udp-shift-adapt"} {
		if hashOf(name, 1) != hashOf(name, 1) {
			t.Errorf("%s: same seed, different stream", name)
		}
		if hashOf(name, 1) == hashOf(name, 2) {
			t.Errorf("%s: different seeds, same stream", name)
		}
	}
	if hashOf("udp-get-zipf", 1) == hashOf("udp-scan-mix", 1) {
		t.Error("scan mix has the same stream as the workload it is derived from")
	}
}

func TestScanPageChecks(t *testing.T) {
	w, _ := workloadByName("udp-scan-mix")
	entry := func(rank uint64) (k, v []byte) {
		k, v = make([]byte, w.keySize), make([]byte, w.valSize)
		putKey(k, rank)
		putValue(v, rank)
		return k, v
	}
	page := func(ranks ...uint64) []byte {
		block, mark := proto.BeginScanResult(nil)
		for _, r := range ranks {
			k, v := entry(r)
			block = proto.AppendScanEntry(block, k, v)
		}
		proto.FinishScanResult(block, mark, len(ranks))
		return block
	}
	start, _ := entry(5)
	if n, why := checkScanPage(&w, start, page(5, 6, 9)); why != "" || n != 3 {
		t.Errorf("good page: %d entries, %q", n, why)
	}
	for name, block := range map[string][]byte{
		"entry before the start": page(4, 6),
		"not ascending":          page(6, 6),
		"descending":             page(9, 6),
	} {
		if _, why := checkScanPage(&w, start, block); why == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	long := make([]uint64, scanLimit+1)
	for i := range long {
		long[i] = uint64(5 + i)
	}
	if _, why := checkScanPage(&w, start, page(long...)); !strings.Contains(why, "limit") {
		t.Errorf("over-long page: %q", why)
	}
	bad := page(5)
	bad[len(bad)-1] ^= 1
	if _, why := checkScanPage(&w, start, bad); !strings.Contains(why, "mismatch") {
		t.Errorf("corrupted value: %q", why)
	}
}

func TestSpanSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "search", Start: 10, End: 30, Parent: 0},
		{Name: "read", Start: 25, End: 50, Parent: 0},  // overlaps search by 5
		{Name: "read", Start: 60, End: 70, Parent: 0},  // a second call
		{Name: "tree", Start: 62, End: 66, Parent: 3},  // grandchild: comes off read, not batch
		{Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "other", Start: 200, End: 210, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"batch":  100 - (20 + 20 + 10 + 10), // children cover [10,50) ∪ [60,70) ∪ [90,100)
		"search": 20,
		"read":   25 + 10 - 4,
		"tree":   4,
		"late":   30,
		"other":  10,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestTracerNestsAndNilTracerIsInert(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 0)) // must not panic
	off.record("x", 0, time.Now(), time.Now())

	tr := newTracer()
	a := tr.begin("a", -1)
	b := tr.begin("b", 3)
	tr.end(b)
	c := tr.begin("c", 4)
	tr.end(c)
	tr.end(a)
	if tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[b].Frame != 3 || len(tr.open) != 0 {
		t.Errorf("frame %d, %d still open", tr.spans[b].Frame, len(tr.open))
	}
}

func TestResultSchemaRoundTripAndContractLine(t *testing.T) {
	w, _ := workloadByName("udp-get-zipf")
	res := newResult(&w, 3, false, &hostInfo{Commit: "abc", GoVersion: "go1.x", NProc: 2, ServerCPUs: "0", GenCPUs: "1", Pinned: true, Conns: 2})
	res.Attempted, res.Failed = 1000, 0
	res.Metrics["kqops"] = metric{712.25, "kq/s"}
	res.Metrics["setup_s"] = metric{5.5, "s"}
	res.band("get_hit_rate", 0.999, 0.995, 1)

	data, err := json.Marshal(resultSet{Runs: []*result{res}})
	if err != nil {
		t.Fatal(err)
	}
	var back resultSet
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got := back.Runs[0]
	if got.Workload != res.Workload || got.Seed != 3 || got.Host.ServerCPUs != "0" || !got.Host.Pinned ||
		got.Metrics["kqops"] != res.Metrics["kqops"] || len(got.Checks) != 1 || !got.Checks[0].OK {
		t.Errorf("round trip lost something: %+v", got)
	}

	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}

	res.band("evictions_per_set", 0.2, 0.35, 0.65)
	if res.Correct || !strings.Contains(res.Failure, "evictions_per_set") {
		t.Errorf("a counter outside its band must fail the run: %+v", res)
	}
}

func TestJudgeRegressionUnresolvedAndDirection(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	if row := judge(steady(700), steady(690), false, 0.10); row.verdict != verdictOK {
		t.Errorf("-1.4%% throughput within a 10%% bound: %s", row.verdict)
	}
	if row := judge(steady(700), steady(600), false, 0.10); row.verdict != verdictRegression || row.worse < 0.14 {
		t.Errorf("-14%% throughput: %s (worse %.3f)", row.verdict, row.worse)
	}
	if row := judge(steady(700), steady(800), false, 0.10); row.verdict != verdictOK {
		t.Errorf("a gain is not a regression: %s", row.verdict)
	}
	if row := judge(steady(300), steady(345), true, 0.10); row.verdict != verdictRegression {
		t.Errorf("+15%% latency: %s", row.verdict)
	}
	noisy := []float64{500, 700, 900, 600, 800}
	if row := judge(noisy, steady(400), false, 0.10); row.verdict != verdictUnresolved {
		t.Errorf("a side whose spread exceeds the bound cannot resolve a change: %s", row.verdict)
	}
	if row := judge(nil, steady(1), false, 0.10); row.verdict != verdictMissing {
		t.Errorf("no data: %s", row.verdict)
	}
}

func TestParseMetricsKeepsLabels(t *testing.T) {
	m, err := parseMetrics(strings.NewReader("# HELP x y\n# TYPE x counter\ndido_served_queries_total 12345\n" +
		"dido_frontend_frames_total{frontend=\"udp\"} 77\ndido_store_index_load_factor 0.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["dido_served_queries_total"] != 12345 || m[`dido_frontend_frames_total{frontend="udp"}`] != 77 || m["dido_store_index_load_factor"] != 0.25 {
		t.Errorf("parsed %v", m)
	}
}

func TestSplitCPUs(t *testing.T) {
	for _, c := range []struct {
		cpus        []int
		server, gen string
	}{
		{[]int{0}, "0", "0"},
		{[]int{0, 1}, "0", "1"},
		{[]int{2, 3, 5}, "2,3", "5"},
		{[]int{0, 1, 2, 3}, "0,1", "2,3"},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, "0,1,2,3", "4,5"},
	} {
		s, g := splitCPUs(c.cpus)
		if cpuList(s) != c.server || cpuList(g) != c.gen {
			t.Errorf("%v: server %s generator %s, want %s and %s", c.cpus, cpuList(s), cpuList(g), c.server, c.gen)
		}
	}
}

// BENCHMARK.json and the code must name the same workloads, and the fields
// the driver limits must stay within their limits.
func TestWorkloadsMatchTheContract(t *testing.T) {
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads, the contract allows 2 to 8", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.name] || len(w.name) > 64 {
			t.Errorf("workload name %q repeated or too long", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		if w.window*2 > 4 && w.openQPS == 0 && !w.resp {
			t.Errorf("%s: %d frames per connection can be shed by the server (see closedWindow)", w.name, w.window)
		}
	}
	var buf bytes.Buffer
	for _, w := range ws {
		res := newResult(&w, 1, false, &hostInfo{})
		res.report(&buf)
	}
	if !strings.Contains(buf.String(), "udp-shift-adapt") {
		t.Error("report does not name its workload")
	}
}

// BENCHMARK.json is what later changes are judged against; it must name what
// the code runs and reports.
func TestBenchmarkJSONNamesWhatTheCodeReports(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	if want := append([]string(nil), endToEndMetrics...); !equalSorted(e2e, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", e2e, want)
	}
	if want := append([]string(nil), perLayerMetrics...); !equalSorted(layers, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", layers, want)
	}
}

func equalSorted(got, want []string) bool {
	sort.Strings(want)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
