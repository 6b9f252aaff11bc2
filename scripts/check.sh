#!/bin/sh
# Full verification gate: vet, build, the test suite under the race
# detector (which exercises the parallel trainer and the parallel
# evaluation harness), a benchmark smoke pass over the metrics hot paths,
# a live /metrics scrape against a real server process, and a short fuzz
# smoke pass over every fuzz target. This is what `make check` runs.
set -e
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...
echo "== go build =="
go build ./...
echo "== go test -race =="
go test -race ./...

# The differential/metamorphic harness runs in the suite above at scale 1;
# the gate gives it a deeper, dedicated pass so oracle drift can't hide
# behind a fast default. Deterministic seeds: a failure here reproduces.
echo "== differential harness (internal/check, CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 ./internal/check

# Batch-engine differential: the lockstep BatchEngine must be bitwise
# identical to sequential Simplify at every width, both inference modes,
# over the adversarial generator set — plus the engine/eval equality
# tests in their home packages. Scaled by the same CHECK_SCALE knob.
echo "== batch-engine differential (CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 -run 'TestBatchEngineDifferential' ./internal/check
go test -race -count=1 -run 'TestBatchEngine|TestForwardBatch|TestRunSetBatched' ./internal/core ./internal/nn ./internal/eval

# Error-kernel pillar: errm.SegmentError's hoisted span kernels must be
# bit-identical (math.Float64bits) to the maximum of the unchanged
# per-point PointError over every adversarial family x measure x span
# length, plus the fuzz target's seed corpus (signed zeros, subnormals,
# near-MaxFloat64, the +Inf lerp tie) and the zero-allocation check.
echo "== error-kernel pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 -run 'TestSegmentErrorKernelBitIdentity' ./internal/check
go test -race -count=1 -run 'FuzzSegmentError|TestSegmentErrorZeroAlloc' ./internal/errm

# FastMath tolerance pillar: the fused approximate kernels against the
# exact path on real decision states — abs/rel bounds on every ProbsBatch
# output, argmax stability on every adversarial family, end-to-end greedy
# kept-index equality — plus the kernel-level contract tests (dense tanh
# sweep, special values, fusion tolerance) in internal/nn. Same
# CHECK_SCALE knob deepens the state coverage.
echo "== fastmath tolerance pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 -run 'TestFastMathTolerance|TestFastCloneIsolation' ./internal/check
go test -race -count=1 -run 'TestFastTanh|TestForwardBatchFast|TestForwardVectorZeroAlloc|TestKernelClone' ./internal/nn

# Durable session store: the spill/rehydrate differential (a streamer
# serialized through the binary codec at adversarial cut points must
# continue bit-identically) plus the server-level durability tests —
# restart bit-identity, corrupt-file quarantine, injected disk failure,
# Close racing live traffic — all under the race detector.
echo "== stream spill/rehydrate pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 -run 'TestSpillRehydrateDifferential' ./internal/check
go test -race -count=1 -run 'TestStreamer(Resume|State)|TestDecodeStreamerState|TestResumeStreamer|TestExportRestore|TestRestore' ./internal/core ./internal/buffer
go test -race -count=1 -run 'TestStream(Restart|LRU|Spill|CloseSpilled|Traversal)|TestServerCloseRacesStreamTraffic' ./internal/server

# Fleet budget pillar: the allocator must distribute exactly the global
# budget deterministically regardless of member ordering, and a rebalance
# against live streamers must never let the fleet's stored-point total
# exceed that budget, even transiently between two resizes. The server
# suite adds the HTTP lifecycle and the spill/restart survival of fleet
# records (allocations rehydrate bit-identically; see TestFleetSurvivesRestart).
echo "== fleet budget pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 -run 'TestFleetAllocateDifferential|TestFleetRebalanceBudgetInvariant' ./internal/check
go test -race -count=1 ./internal/fleet
go test -race -count=1 -run 'TestFleet|TestStreamList' ./internal/server

# Error-bounded pillar: CISED/OPERB kept sets re-scored by the exact
# oracle on every adversarial family (including the overflow-probing
# extreme/huge ones) must never exceed the requested bound, and their
# compression must stay within a small factor of the Min-Size DP. The
# package suites add the degenerate-input contract and the bound=eps
# HTTP routing. Same CHECK_SCALE knob deepens the sweep.
echo "== error-bounded pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 -run 'TestBoundedOnePass' ./internal/check
go test -race -count=1 -run 'TestBounded|TestSearchBudget' ./internal/baseline/online ./internal/minsize
go test -race -count=1 -run 'TestBounded|TestBudgetConflict' ./internal/server

# Dirty-ingest pillar: repair output must always satisfy the strict
# FromPoints contract (every corruption family x every profile x every
# config), clean input must pass through bit-identically, and chunking /
# export-resume cuts must be invisible — plus the repairer unit suite,
# the hostile generator families, and the server-level wiring (one-shot,
# batch, stream, spill-envelope v2 restart bit-identity, classified
# reject codes). Same CHECK_SCALE knob deepens the sweeps.
echo "== dirty-ingest repair pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
CHECK_SCALE="${CHECK_SCALE:-4}" go test -race -count=1 -run 'TestRepair' ./internal/check
go test -race -count=1 -run 'TestRepair|TestResumeRepairer|TestValidateDuplicateTime|TestDownsampleDirtyTail|TestCleanFloorsMinPoints' ./internal/traj
go test -race -count=1 -run 'TestDirty|TestFamilies|TestEveryFamilyRepairs|TestCorrupt|TestCompose|TestOutlierInStop|TestDupOfOutlier' ./internal/gen
go test -race -count=1 -run 'TestSimplifyRepair|TestBatchRepair|TestStreamRepair|TestStreamRejectCodes|TestSpillEnvelopeV1|TestPointsErrorCode' ./internal/server

# Crash-restart smoke with the real binary: boot with a spill dir, open a
# session and push half a stream, SIGTERM (the drain path spills it),
# restart against the same directory, push the rest and make sure the
# rehydrated session answers with everything it saw.
echo "== crash-restart smoke =="
SPILL_PORT="${SPILL_PORT:-18322}"
SPILL_DIR="$(mktemp -d /tmp/rlts-spill-check.XXXXXX)"
go build -o /tmp/rlts-server-check ./cmd/rlts-server
/tmp/rlts-server-check -addr "127.0.0.1:$SPILL_PORT" -spill-dir "$SPILL_DIR" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$SPILL_DIR"' EXIT
ok=""
for i in 1 2 3 4 5 6 7 8 9 10; do
    if curl -fsS "http://127.0.0.1:$SPILL_PORT/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "crash-restart: server never answered on :$SPILL_PORT"; exit 1; }
SID=$(curl -fsS -X POST "http://127.0.0.1:$SPILL_PORT/v1/stream" \
    -d '{"measure":"SED","w":5}' | sed 's/.*"id":"\([0-9a-f]*\)".*/\1/')
[ -n "$SID" ] || { echo "crash-restart: no session id"; exit 1; }
curl -fsS -X POST "http://127.0.0.1:$SPILL_PORT/v1/stream/$SID/points" \
    -d '{"points":[[0,0,0],[1,0,1],[2,5,2],[3,0,3]]}' >/dev/null
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
ls "$SPILL_DIR"/*.sess >/dev/null 2>&1 || { echo "crash-restart: no spill file after SIGTERM"; exit 1; }
/tmp/rlts-server-check -addr "127.0.0.1:$SPILL_PORT" -spill-dir "$SPILL_DIR" &
SERVER_PID=$!
ok=""
for i in 1 2 3 4 5 6 7 8 9 10; do
    if curl -fsS "http://127.0.0.1:$SPILL_PORT/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "crash-restart: restarted server never answered"; exit 1; }
curl -fsS -X POST "http://127.0.0.1:$SPILL_PORT/v1/stream/$SID/points" \
    -d '{"points":[[4,0,4],[5,2,5]]}' >/dev/null || {
    echo "crash-restart: push to rehydrated session failed"; exit 1; }
SNAP=$(curl -fsS "http://127.0.0.1:$SPILL_PORT/v1/stream/$SID")
echo "$SNAP" | grep -q '"seen":6' || {
    echo "crash-restart: rehydrated session lost points: $SNAP"; exit 1; }
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
rm -rf "$SPILL_DIR"
trap - EXIT
echo "crash-restart: OK"

# One iteration per obs benchmark: catches compile errors and gross
# regressions (a panicking Observe, an encoder that hangs) without
# turning the gate into a benchmark run.
echo "== obs bench smoke (1 iteration each) =="
go test ./internal/obs -run '^$' -bench . -benchtime 1x

# Live scrape check: boot the real server, curl /metrics, and make sure
# the exposition output mentions our metric namespace. Guards the whole
# wiring chain (registry -> handler -> route), not just the encoder.
echo "== /metrics scrape check =="
SCRAPE_PORT="${SCRAPE_PORT:-18321}"
go build -o /tmp/rlts-server-check ./cmd/rlts-server
/tmp/rlts-server-check -addr "127.0.0.1:$SCRAPE_PORT" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
# Wait for readiness on /healthz; that request also seeds the request
# counter so the scrape below has a series to find (the middleware records
# a request after its response is written, so a first scrape never shows
# itself).
ok=""
for i in 1 2 3 4 5 6 7 8 9 10; do
    if curl -fsS "http://127.0.0.1:$SCRAPE_PORT/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "scrape check: server never answered on :$SCRAPE_PORT"; exit 1; }
curl -fsS "http://127.0.0.1:$SCRAPE_PORT/metrics" >/tmp/rlts-scrape.txt
grep -q '^rlts_http_requests_total' /tmp/rlts-scrape.txt || {
    echo "scrape check: no rlts_http_requests_total in /metrics output"
    cat /tmp/rlts-scrape.txt
    exit 1
}
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "scrape check: OK"

# FUZZTIME can be raised for a deeper run; 10s per target keeps the gate
# fast while still shaking out regressions in the parsers and handlers.
FUZZTIME="${FUZZTIME:-10s}"
echo "== fuzz smoke ($FUZZTIME per target) =="
go test ./internal/traj -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime "$FUZZTIME"
go test ./internal/traj -run '^$' -fuzz '^FuzzReadPLT$' -fuzztime "$FUZZTIME"
go test ./internal/traj -run '^$' -fuzz '^FuzzFromPoints$' -fuzztime "$FUZZTIME"
go test ./internal/traj -run '^$' -fuzz '^FuzzRepair$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzSimplifyHandler$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzStatsHandler$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzSessionDecode$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzStateEnvelopes$' -fuzztime "$FUZZTIME"
go test ./internal/storage -run '^$' -fuzz '^FuzzDecode$' -fuzztime "$FUZZTIME"
go test ./internal/errm -run '^$' -fuzz '^FuzzSegmentError$' -fuzztime "$FUZZTIME"
echo "check: OK"
