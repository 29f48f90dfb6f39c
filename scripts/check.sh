#!/usr/bin/env bash
# check.sh — the repo's CI gate: gofmt, vet, build, race-enabled tests, a focused
# concurrency pass over the store/slab read path, a benchmark smoke, and a
# short protocol-parser fuzz smoke.
#
# Usage: scripts/check.sh [fuzztime] [base]
#   fuzztime  per-target fuzz duration (default 10s; "0" skips fuzzing)
#   base      commit the benchmark must be unchanged since (default: the
#             merge base with main, which on main itself is HEAD)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"
BASE="${2:-$(git merge-base HEAD main 2>/dev/null || echo HEAD)}"

echo "== gofmt (tracked Go files) =="
UNFORMATTED="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$UNFORMATTED" ]; then
    echo "not gofmt-clean (run gofmt -w):" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# The server is the product, the simulator the reproduction: the figure
# machinery (the simulated system in internal/dido, its workload generators
# and network cost profiles) must never be linked into cmd/dido-server again,
# and internal/pipeline — the plan vocabulary plus the live runner — must not
# pull in the store or the simulator's inputs. The fault injector
# (internal/faults) is the test suite's tool: neither the server nor the load
# generator links it.
echo "== server dependency guard =="
SERVER_DEPS="$(go list -deps ./cmd/dido-server)"
if grep -E -x 'repro/internal/(gpu|sim|dido|workload|netsim)' <<<"$SERVER_DEPS"; then
    echo "cmd/dido-server links the simulator packages listed above" >&2
    exit 1
fi
BINARY_DEPS="$(go list -deps ./cmd/dido-server ./cmd/dido-loadgen)"
if grep -x 'repro/internal/faults' <<<"$BINARY_DEPS"; then
    echo "cmd/dido-server or cmd/dido-loadgen links the test-only fault injector" >&2
    exit 1
fi
PIPELINE_DEPS="$(go list -deps ./internal/pipeline)"
if grep -E -x 'repro/internal/(store|netsim|workload)' <<<"$PIPELINE_DEPS"; then
    echo "internal/pipeline imports the packages listed above" >&2
    exit 1
fi

# benchmark/ is a nested module: the root `go build ./...` and `go test ./...`
# never see it, so API drift against it would go unnoticed until the gate runs
# it. Vet, build and unit-test it here (no sockets, no server). A change that
# claims a gain must also leave it byte for byte as its base has it (a change
# to the benchmark is its own PR, and passes its own HEAD as base).
echo "== benchmark module (nested: vet, build, test; unchanged since $BASE) =="
(cd benchmark && go vet ./... && go build -o /dev/null ./... && go test ./...) # -o: one main package, a bare build would drop its binary there
git diff --exit-code "$BASE" -- benchmark BENCHMARK.json

# The simulation figure suite (internal/bench) legitimately needs >10min
# under the race detector on small machines; raise the per-package timeout.
# -shuffle=on randomizes test order so inter-test state dependencies cannot
# hide (the seed is printed on failure for reproduction).
echo "== go test -race -shuffle=on =="
go test -race -shuffle=on -timeout 1800s ./...

# The seqlock read path and eviction stress live here; run them un-cached so
# every CI pass exercises the concurrency machinery (incl. the -race pass on
# TestConcurrentEvictionStress).
echo "== store/slab concurrency (-race, -count=1) =="
go test -count=1 -race -timeout 900s ./internal/store ./internal/slab
# The CLOCK use word is the one header word written without the class lock
# (Touch's CAS against the hand's ref clear and writeObject's rewrite):
# repeat its tests so a rare interleaving gets many chances to show.
go test -race -count=20 -timeout 900s -run 'Clock|Touch|Evict|AccessCount' ./internal/slab

# The live batched pipeline (stage workers, online reconfiguration, batched
# UDP send/recv) is the other concurrency-heavy surface; run it un-cached
# under the race detector every pass too.
echo "== pipeline concurrency (-race, -count=1) =="
go test -count=1 -race -timeout 900s ./internal/pipeline ./internal/dido ./internal/costmodel ./internal/udpbatch

# The observability layer is scraped concurrently with serving (trace ring and
# slow log appended from the hot path, read from HTTP handlers); run it
# un-cached under the race detector every pass, plus the root-package chaos
# e2e that scrapes the admin endpoint mid-traffic.
echo "== observability (-race, -count=1) =="
go test -count=1 -race -timeout 900s ./internal/obs
go test -count=1 -race -timeout 900s -run 'AdminUnderChaos|SlowLogOn|SlowLogThreshold|StatsDumpMetrics|CollectMetricsNames|ControllerTrace' \
    . ./internal/costmodel

# The stage-1 seal hand-off (Submit's size seal and the worker's take,
# coalescing while stage 1 is busy, ready-before-pending order, drain on
# Close), the simulator's work-stealing pricing tests
# (internal/dido), and the read-linearizability hammer (a writer overwriting
# one key while readers take every read path: never a stale value, never a
# miss) — concurrent machinery, so un-cached and race-enabled every pass.
echo "== stage-1 seal + read linearizability (-race, -count=1) =="
go test -count=1 -race -timeout 900s \
    -run 'LiveIdleSeal|LiveSeal|WorkStealing|ReadNeverServesStale' \
    ./internal/pipeline ./internal/dido ./internal/store
# The whole live runner, repeated: a rare seal/take/Close interleaving gets
# twenty chances to show.
go test -race -count=20 -timeout 900s ./internal/pipeline
# A stale or missed read is a rare interleaving: repeat the hammer.
go test -count=200 -timeout 900s -run TestReadNeverServesStale ./internal/store

# The batched read path: cross-check SearchBatch/GetBatch against the scalar
# search under concurrent churn (the amortized version-check fallback, and
# the displacement kick that must advance the version it checks), un-cached
# and race-enabled every pass; then the store and cuckoo halves repeated, so
# the primary-first fallback (a key whose primary-bucket candidates all fail
# verification re-probes both buckets) meets many interleavings.
echo "== batched read path (-race, -count=1; store/cuckoo -count=20) =="
go test -count=1 -race -timeout 900s \
    -run 'SearchBatch|GetBatch|ReadCandidatesBatch|BatchPath|LiveWide|PipelinedWidePath|KickAdvancesVersion' \
    ./internal/cuckoo ./internal/store ./internal/pipeline .
go test -race -count=20 -timeout 900s -run 'SearchBatch|GetBatch|ReadCandidatesBatch|PrimaryCollision' ./internal/store ./internal/cuckoo

# The durability tier: group-commit WAL, snapshot/truncate, disk fault
# injection, and the kill -9 crash-recovery e2e (re-exec + SIGKILL mid-load,
# then verify every acked SET survived the pipeline's LG group commit).
# Commit-before-ack runs concurrently with serving, so all of it goes under
# the race detector, un-cached every pass.
echo "== durability (-race, -count=1) =="
go test -count=1 -race -timeout 900s ./internal/wal ./internal/snapshot ./internal/faults
go test -count=1 -race -timeout 900s -run 'TestDurable|TestCrash' .

# The ordered index + range-scan path: the lazy-COW B-tree's snapshot/writer
# concurrency (in-place writes must never reach a node a snapshot shares:
# shape invariants after seeded random ops, several snapshots of different
# ages, the shared-node deep compare — a failure prints -ordered.seed), the
# store's write-path tree reconciliation (resolve-under-lock against the
# cuckoo index, incl. eviction-victim retirement and the key-checked free),
# the scan-vs-model equivalence and torn/reclaimed-value suites over the
# seqlock slab, the index-equals-cuckoo key-set check after eviction churn,
# the upkeep drop/rebuild cycle, and the root-package scan e2e + chaos pins —
# snapshot isolation is exactly the kind of guarantee only the race detector
# keeps honest, so un-cached and race-enabled every pass, the in-place tree
# ten times over, writers racing a tree's drop and its rebuild twenty times
# over, and the store's scans — batched seeks and value waves racing
# deletes, overwrites and evictions — twenty times over.
echo "== ordered index (-race, -count=10) + scan path (-race, -count=1; store scans -count=20) =="
go test -count=10 -race -timeout 900s ./internal/ordered
go test -count=1 -race -timeout 900s \
    -run 'Scan|Ordered|SnapshotIsolation|FreeIfMatch' \
    ./internal/store ./internal/slab ./internal/pipeline ./internal/task .
go test -count=20 -race -timeout 900s -run TestOrderedUpkeepDropRebuildRace ./internal/store
go test -race -count=20 -timeout 900s -run 'Scan' ./internal/store

# The transport front ends: RESP parser/framer unit + fuzz corpus, command-run
# sealing, and the root-package RESP e2e (in-order pipelines, late readers,
# faulty conns, the connection gate, shutdown flushes) — all socket-facing
# concurrency, so un-cached under the race detector every pass, and the
# root-package RESP tests twenty times over: a rare interleaving of a
# connection's reader, its writer and shutdown gets twenty chances to show.
echo "== frontend (-race; root RESP -count=20) =="
go test -count=1 -race -timeout 900s ./internal/frontend
go test -race -count=20 -timeout 900s -run 'RESP' .

# The simulated system's figures (EXPERIMENTS.md) must not move unless a
# change means them to: every output line of the quick suite except its
# wall-clock "(figN took …)" lines is pinned. Regenerate the golden file only
# for a deliberate change to the simulator, and say so in the change.
echo "== simulator figures (dido-bench -quick all vs testdata golden) =="
go run ./cmd/dido-bench -quick all | grep -v -E '^\([a-z0-9-]+ took [^)]*\)$' \
    | diff -u testdata/dido-bench-quick.golden -

# Benchmark smoke: one iteration each, just proving the benchmarks still
# compile and run (allocation regressions show up in the full bench runs).
echo "== benchmark smoke =="
go test -run='^$' -bench=. -benchtime=1x ./internal/store ./internal/slab ./internal/cuckoo ./internal/ordered

# Batched-search bench smoke: a short real run (not 1x) of the batched-vs-
# scalar comparison, of the serving-shape batched reads, all hits and
# half misses (staged and fused), and of the batched scans, proving the
# batched paths execute end-to-end at every batch size
# from 1 up and stay allocation-free (the -benchtime=8x run is long enough
# for the alloc columns to be meaningful, short enough for CI).
echo "== batched-search bench smoke =="
go test -run='^$' -bench='BenchmarkSearchBatch|BenchmarkReadBatch|BenchmarkScanBatch' -benchtime=8x ./internal/store

# End-to-end smoke of the real binaries: a dido-server with -adapt and the
# admin endpoint serving a short dido-loadgen run must finish with zero
# errors, and the loadgen's -scrape-assert mode audits the admin surface
# (monotonic counters, valid /config and /trace JSON) as part of the same
# run.
echo "== adaptive server/loadgen smoke (admin scrape asserted) =="
SMOKE_DIR="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
go build -o "$SMOKE_DIR/dido-server" ./cmd/dido-server
go build -o "$SMOKE_DIR/dido-loadgen" ./cmd/dido-loadgen
SMOKE_ADDR="127.0.0.1:13311"
SMOKE_ADMIN="127.0.0.1:13390"
"$SMOKE_DIR/dido-server" -addr "$SMOKE_ADDR" -adapt -stats-interval 0 \
    -admin "$SMOKE_ADMIN" -slow-query 1ms &
SERVER_PID=$!
sleep 0.3
"$SMOKE_DIR/dido-loadgen" -addr "$SMOKE_ADDR" -workload K16-G95-S -duration 2s -population 10000 \
    -scan-ratio 0.05 -scrape "http://$SMOKE_ADMIN" -scrape-assert
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

# Same smoke with the durability tier on: a -wal server serving a write-bearing
# run, with the loadgen's scrape audit asserting the WAL counters advanced
# (dido_wal_records_total / dido_wal_bytes_total non-zero, all counters
# monotonic). The server restarts once from the same directory so startup
# recovery runs against a real WAL+snapshot left by SIGTERM drain.
echo "== durable server/loadgen smoke (WAL scrape asserted) =="
WAL_ADDR="127.0.0.1:13312"
WAL_ADMIN="127.0.0.1:13391"
"$SMOKE_DIR/dido-server" -addr "$WAL_ADDR" -stats-interval 0 \
    -wal "$SMOKE_DIR/wal" -snapshot-interval 1s -admin "$WAL_ADMIN" &
SERVER_PID=$!
sleep 0.3
"$SMOKE_DIR/dido-loadgen" -addr "$WAL_ADDR" -workload K16-G50-S -duration 2s -population 10000 \
    -scrape "http://$WAL_ADMIN" -scrape-assert
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
"$SMOKE_DIR/dido-server" -addr "$WAL_ADDR" -stats-interval 0 \
    -wal "$SMOKE_DIR/wal" -admin "$WAL_ADMIN" &
SERVER_PID=$!
sleep 0.3
"$SMOKE_DIR/dido-loadgen" -addr "$WAL_ADDR" -workload K16-G95-U -duration 1s -population 1000 \
    -warm=false -scrape "http://$WAL_ADMIN" -scrape-assert
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

# RESP front-end smoke with the durability contract: a -resp -wal server takes
# a warmed write-bearing run over TCP/RESP, is killed with SIGKILL (no drain),
# restarts from the same directory, and an unwarmed GET-only pass over the
# same deterministic keyspace must hit ≥99% — acked RESP SETs survive kill -9.
echo "== RESP smoke (kill -9 recovery of acked SETs) =="
RESP_UDP="127.0.0.1:13313"
RESP_ADDR="127.0.0.1:13314"
"$SMOKE_DIR/dido-server" -addr "$RESP_UDP" -resp "$RESP_ADDR" -stats-interval 0 \
    -wal "$SMOKE_DIR/respwal" &
SERVER_PID=$!
sleep 0.3
"$SMOKE_DIR/dido-loadgen" -addr "$RESP_ADDR" -resp -workload K16-G50-S -duration 1s \
    -population 5000
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
"$SMOKE_DIR/dido-server" -addr "$RESP_UDP" -resp "$RESP_ADDR" -stats-interval 0 \
    -wal "$SMOKE_DIR/respwal" &
SERVER_PID=$!
sleep 0.3
"$SMOKE_DIR/dido-loadgen" -addr "$RESP_ADDR" -resp -workload K16-G100-U -duration 1s \
    -population 5000 -warm=false -assert-min-hit-rate 0.99
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

if [ "$FUZZTIME" != "0" ]; then
    echo "== fuzz smoke ($FUZZTIME per target) =="
    go test -run='^$' -fuzz=FuzzParseFrame -fuzztime="$FUZZTIME" ./internal/proto
    go test -run='^$' -fuzz=FuzzParseResponseFrame -fuzztime="$FUZZTIME" ./internal/proto
    go test -run='^$' -fuzz=FuzzScanOpcode -fuzztime="$FUZZTIME" ./internal/proto
    go test -run='^$' -fuzz=FuzzOrderedTree -fuzztime="$FUZZTIME" ./internal/ordered
    go test -run='^$' -fuzz=FuzzSearchBatchMatchesSearchBuf -fuzztime="$FUZZTIME" ./internal/cuckoo
    go test -run='^$' -fuzz=FuzzWALReplay -fuzztime="$FUZZTIME" ./internal/wal
    go test -run='^$' -fuzz=FuzzRESPParse -fuzztime="$FUZZTIME" ./internal/frontend
fi

echo "== check.sh: all green =="
