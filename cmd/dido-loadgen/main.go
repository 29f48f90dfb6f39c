// Command dido-loadgen drives a dido-server with one of the paper's 24
// standard workloads over UDP, batching queries per frame the way the
// evaluation does (§V-A), and reports achieved throughput. With -resp the
// same workloads drive the TCP/RESP2 frontend instead, pipelining one
// command per query so a batch still round-trips on one write.
//
// The client retries lost frames with exponential backoff (-timeout,
// -retries, -backoff) and tolerates overload shedding: StatusBusy rounds are
// retried, and exhausted requests are counted rather than aborting the run.
//
// With -scrape, the load generator doubles as an observability smoke check:
// it scrapes the server's admin /metrics endpoint before and after the run,
// prints counter deltas, and fetches /config and /trace. -scrape-assert turns
// violations (a non-monotonic *_total counter, an unreachable endpoint, a
// zero served count) into a non-zero exit for CI.
//
// Usage:
//
//	dido-loadgen -addr 127.0.0.1:11311 -workload K16-G95-S -duration 10s
//	dido-loadgen -retries 10 -timeout 100ms
//	dido-loadgen -scrape http://127.0.0.1:9090 -scrape-assert
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/frontend"
	"repro/internal/proto"
	"repro/internal/workload"
)

// kvClient is the slice of the UDP and RESP clients the driver loop needs.
type kvClient interface {
	Do([]dido.Query) ([]dido.Response, error)
	Close() error
}

func main() {
	addr := flag.String("addr", "127.0.0.1:11311", "server address (UDP binary, or TCP RESP with -resp)")
	resp := flag.Bool("resp", false, "drive the TCP/RESP2 frontend instead of the UDP binary protocol")
	assertHitRate := flag.Float64("assert-min-hit-rate", 0, "exit non-zero if the final GET hit rate is below this (0 disables)")
	wl := flag.String("workload", "K16-G95-U", "standard workload name (see README)")
	dur := flag.Duration("duration", 10*time.Second, "run duration")
	batch := flag.Int("batch", 128, "queries per frame")
	pop := flag.Uint64("population", 100000, "key population")
	warm := flag.Bool("warm", true, "pre-load the population before measuring")
	seed := flag.Int64("seed", 1, "generator seed")
	scanRatio := flag.Float64("scan-ratio", 0, "fraction of queries replaced with SCAN range reads starting at a random population key (needs a server with an ordered index)")
	scanLimit := flag.Int("scan-limit", 64, "entries per SCAN (with -scan-ratio)")

	report := flag.Duration("report", 0, "progress report interval (0 disables)")

	timeout := flag.Duration("timeout", dido.DefaultClientTimeout, "per-attempt response timeout")
	retries := flag.Int("retries", dido.DefaultClientRetries, "resend attempts per frame (negative disables)")
	backoff := flag.Duration("backoff", dido.DefaultClientBackoff, "initial retry backoff (doubles, jittered)")

	scrape := flag.String("scrape", "", "admin base URL to scrape before/after the run, e.g. http://127.0.0.1:9090")
	scrapeAssert := flag.Bool("scrape-assert", false, "exit non-zero on scrape violations (needs -scrape)")
	flag.Parse()

	spec, ok := workload.SpecByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q; options:\n", *wl)
		for _, s := range workload.StandardSpecs() {
			fmt.Fprintf(os.Stderr, "  %s\n", s.Name)
		}
		os.Exit(2)
	}

	var c kvClient
	var udpClient *dido.Client
	if *resp {
		rc, err := frontend.DialRESP(*addr, *timeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dial resp:", err)
			os.Exit(1)
		}
		c = rc
	} else {
		opts := dido.ClientOptions{Timeout: *timeout, Retries: *retries, Backoff: *backoff, Seed: *seed}
		uc, err := dido.DialOpts(*addr, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dial:", err)
			os.Exit(1)
		}
		udpClient, c = uc, uc
	}
	defer c.Close()

	var before map[string]float64
	if *scrape != "" {
		m, err := scrapeMetrics(*scrape)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
			if *scrapeAssert {
				os.Exit(1)
			}
		}
		before = m
	}

	if *scanRatio < 0 || *scanRatio > 1 {
		fmt.Fprintln(os.Stderr, "-scan-ratio must be in [0,1]")
		os.Exit(2)
	}
	scanRng := rand.New(rand.NewSource(*seed + 7919))

	gen := workload.NewGenerator(spec, *pop, *seed)
	if *warm {
		fmt.Printf("warming %d keys...\n", *pop)
		val := make([]byte, spec.ValueSize)
		var buf []byte
		var qs []dido.Query
		for i := uint64(1); i <= *pop; i++ {
			buf = gen.KeyAt(i, nil)
			qs = append(qs, dido.Query{Op: dido.OpSet, Key: buf, Value: val})
			if len(qs) >= *batch {
				if _, err := c.Do(qs); err != nil {
					fmt.Fprintln(os.Stderr, "warm:", err)
					os.Exit(1)
				}
				qs = qs[:0]
			}
		}
		if len(qs) > 0 {
			c.Do(qs)
		}
	}

	fmt.Printf("running %s for %v (batch %d)...\n", spec.Name, *dur, *batch)
	deadline := time.Now().Add(*dur)
	var sent, hits, misses, failedBusy, failedTimeout uint64
	var scansSent, scanEntriesGot, scanErrs uint64
	start := time.Now()
	lastReport, lastSent := start, uint64(0)
	for time.Now().Before(deadline) {
		if *report > 0 {
			if now := time.Now(); now.Sub(lastReport) >= *report {
				// Interval throughput, so pipeline reconfiguration and
				// convergence are visible as the run progresses.
				window := now.Sub(lastReport)
				fmt.Printf("t=%v %.1f KOPS (interval)\n",
					now.Sub(start).Round(time.Second),
					float64(sent-lastSent)/window.Seconds()/1000)
				lastReport, lastSent = now, sent
			}
		}
		qs := gen.Batch(*batch)
		if *scanRatio > 0 {
			for i := range qs {
				if scanRng.Float64() < *scanRatio {
					start := gen.KeyAt(uint64(scanRng.Int63n(int64(*pop)))+1, nil)
					qs[i] = proto.ScanQuery(start, nil, *scanLimit)
				}
			}
		}
		resps, err := c.Do(qs)
		if err != nil {
			// Under overload or heavy loss a request can exhaust its retry
			// budget; count it and keep driving rather than aborting.
			switch {
			case errors.Is(err, dido.ErrBusy):
				failedBusy++
				continue
			case errors.Is(err, dido.ErrTimeout):
				failedTimeout++
				continue
			default:
				fmt.Fprintln(os.Stderr, "do:", err)
				os.Exit(1)
			}
		}
		sent += uint64(len(qs))
		for i, r := range resps {
			// RESP sheds per command batch in-band; skip busy replies so the
			// hit rate reflects answered GETs only (UDP busy rounds retry
			// inside Do and never reach here).
			if r.Status == dido.StatusBusy {
				failedBusy++
				continue
			}
			if qs[i].Op == dido.OpScan {
				scansSent++
				if r.Status == dido.StatusOK {
					n, err := proto.DecodeScanResult(r.Value, func(_, _ []byte) bool { return true })
					if err != nil {
						scanErrs++
					} else {
						scanEntriesGot += uint64(n)
					}
				} else {
					scanErrs++
				}
				continue
			}
			if qs[i].Op != dido.OpGet {
				continue
			}
			if r.Status == dido.StatusOK {
				hits++
			} else {
				misses++
			}
		}
	}
	elapsed := time.Since(start)
	hitRate := float64(hits) / float64(maxU(hits+misses, 1))
	fmt.Printf("sent %d queries in %v: %.1f KOPS, GET hit rate %.3f\n",
		sent, elapsed.Round(time.Millisecond),
		float64(sent)/elapsed.Seconds()/1000, hitRate)
	if udpClient != nil {
		cs := udpClient.Stats()
		fmt.Printf("resilience: retries=%d timeouts=%d busy-rounds=%d failed[busy=%d timeout=%d]\n",
			cs.Retries, cs.Timeouts, cs.BusyRounds, failedBusy, failedTimeout)
	} else {
		fmt.Printf("resilience: failed[busy=%d timeout=%d]\n", failedBusy, failedTimeout)
	}
	if *scanRatio > 0 {
		fmt.Printf("scans: sent=%d entries=%d errors=%d\n", scansSent, scanEntriesGot, scanErrs)
		if scansSent > 0 && scanErrs == scansSent {
			fmt.Fprintln(os.Stderr, "every SCAN failed — is the server running with -ordered?")
			os.Exit(1)
		}
	}
	if *assertHitRate > 0 && hitRate < *assertHitRate {
		fmt.Fprintf(os.Stderr, "GET hit rate %.3f below required %.3f\n", hitRate, *assertHitRate)
		os.Exit(1)
	}

	if *scrape != "" {
		// A run that warmed or carries SETs must have advanced the WAL
		// counters on a durable server; GET-only unwarmed runs commit nothing.
		expectWrites := *warm || spec.GetRatio < 1
		if err := checkScrape(*scrape, before, expectWrites, scansSent, scanEntriesGot); err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
			if *scrapeAssert {
				os.Exit(1)
			}
		}
	}
}

// scrapeMetrics fetches base+"/metrics" and parses the Prometheus text
// exposition into sample (name with labels) → value. Comment lines are
// skipped; anything else must parse, so a malformed exposition fails loudly.
func scrapeMetrics(base string) (map[string]float64, error) {
	body, err := adminGet(base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// checkScrape re-scrapes the admin endpoint after the run and audits it
// against the pre-run snapshot: every *_total counter must be monotonic, the
// server must have served something, a durable server's WAL counters must
// have advanced when the run carried writes, and /config and /trace must
// answer with valid JSON. The first violation is returned as an error.
func checkScrape(base string, before map[string]float64, expectWrites bool, scansSent, scanEntries uint64) error {
	after, err := scrapeMetrics(base)
	if err != nil {
		return err
	}
	var names []string
	for name := range before {
		if strings.Contains(name, "_total") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	checked := 0
	for _, name := range names {
		v2, ok := after[name]
		if !ok {
			return fmt.Errorf("counter %s vanished between scrapes", name)
		}
		if v2 < before[name] {
			return fmt.Errorf("counter %s went backwards: %v -> %v", name, before[name], v2)
		}
		checked++
	}
	if served := after["dido_served_queries_total"]; served == 0 {
		return fmt.Errorf("dido_served_queries_total is 0 after the run")
	}
	// Durability audit, active only when the server exposes the WAL surface:
	// a write-bearing run against a durable server must have committed and
	// accounted records.
	if _, durable := after["dido_wal_records_total"]; durable && expectWrites {
		if after["dido_wal_records_total"] == 0 {
			return fmt.Errorf("durable server committed no WAL records despite writes")
		}
		if after["dido_wal_bytes_total"] == 0 {
			return fmt.Errorf("dido_wal_bytes_total is 0 with %v records committed", after["dido_wal_records_total"])
		}
	}
	// Scan audit: a run that sent SCANs against a scannable server must have
	// advanced the dido_scan_* counters (requests always; entries whenever the
	// client actually decoded some back).
	if scansSent > 0 {
		if after["dido_scan_requests_total"] <= before["dido_scan_requests_total"] {
			return fmt.Errorf("sent %d SCANs but dido_scan_requests_total did not advance (%v -> %v)",
				scansSent, before["dido_scan_requests_total"], after["dido_scan_requests_total"])
		}
		if scanEntries > 0 && after["dido_scan_entries_total"] <= before["dido_scan_entries_total"] {
			return fmt.Errorf("decoded %d scan entries but dido_scan_entries_total did not advance", scanEntries)
		}
	}
	fmt.Printf("scrape: %d samples, %d *_total counters monotonic, served=%.0f frames=%.0f wal-records=%.0f\n",
		len(after), checked, after["dido_served_queries_total"], after["dido_frames_total"],
		after["dido_wal_records_total"])
	for _, path := range []string{"/config", "/trace"} {
		body, err := adminGet(base + path)
		if err != nil {
			// /trace 404s when the server runs without -adapt; that is a
			// configuration, not a violation.
			if path == "/trace" && errors.Is(err, errNotFound) {
				continue
			}
			return err
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("%s: not JSON: %v", path, err)
		}
	}
	return nil
}

var errNotFound = errors.New("not found")

func adminGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %v", url, err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("GET %s: %w", url, errNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
