GO ?= go

.PHONY: test check check-diff check-kernel check-stream check-fleet check-bound check-dirty bench-rollout bench-obs bench-batch bench-fast bench-load

test:
	$(GO) test ./...

# Differential + metamorphic correctness harness (internal/check): tracker
# vs recompute, streamer vs slice simplify, DP min-size vs brute force,
# rigid-motion invariance, adversarial-geometry totality. Deterministic
# seeds, race-enabled. CHECK_SCALE multiplies the iteration budget for
# deeper soak runs (default 1; the gate uses 4).
check-diff:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 ./internal/check

# Error-kernel pillar: errm.SegmentError's hoisted span kernels against
# the maximum of the unchanged per-point PointError, compared bit for bit
# over every adversarial family x measure x span length, plus the fuzz
# seed corpus and the zero-allocation check, race-enabled. CHECK_SCALE
# deepens the differential.
check-kernel:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestSegmentErrorKernelBitIdentity' ./internal/check
	$(GO) test -race -count=1 -run 'FuzzSegmentError|TestSegmentErrorZeroAlloc' ./internal/errm

# Durable session-store pillar: the spill/rehydrate bit-identity
# differential, the state codec totality tests, and the server-level
# durability suite (restart, quarantine, injected disk failure, Close vs
# live traffic), race-enabled. CHECK_SCALE deepens the differential.
check-stream:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestSpillRehydrateDifferential' ./internal/check
	$(GO) test -race -count=1 -run 'TestStreamer(Resume|State)|TestDecodeStreamerState|TestResumeStreamer|TestExportRestore|TestRestore' ./internal/core ./internal/buffer
	$(GO) test -race -count=1 -run 'TestStream|TestServerCloseRacesStreamTraffic' ./internal/server

# Fleet budget pillar: the allocator differential (exact-sum, per-member
# floor, determinism under member ordering), the rebalance invariant (a
# fleet of live streamers never holds more than the global budget, even
# transiently mid-rebalance), the pure allocator suite and the
# server-level fleet tests (lifecycle, attach validation, restart
# survival), race-enabled. CHECK_SCALE deepens the differentials.
check-fleet:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestFleetAllocateDifferential|TestFleetRebalanceBudgetInvariant' ./internal/check
	$(GO) test -race -count=1 ./internal/fleet
	$(GO) test -race -count=1 -run 'TestFleet|TestStreamList' ./internal/server

# Error-bounded pillar: the one-pass bound proof (every CISED/OPERB kept
# set re-scored by the exact oracle across all adversarial families) and
# the compression calibration against the Min-Size DP, plus the algorithm
# unit/degenerate tests and the server-level bound=eps routing tests,
# race-enabled. CHECK_SCALE deepens the differentials.
check-bound:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestBoundedOnePass' ./internal/check
	$(GO) test -race -count=1 -run 'TestBounded|TestSearchBudget' ./internal/baseline/online ./internal/minsize
	$(GO) test -race -count=1 -run 'TestBounded|TestBudgetConflict' ./internal/server

# Dirty-ingest pillar: the repair contract (output always satisfies the
# strict FromPoints contract, clean input passes through bit-identically,
# chunking and export/resume cuts are invisible), the repairer unit and
# state-codec suites, the hostile generator families, and the server-level
# repair wiring (one-shot, batch, stream, spill-envelope v2 restart
# bit-identity, classified reject codes), race-enabled. CHECK_SCALE
# deepens the differentials.
check-dirty:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestRepair' ./internal/check
	$(GO) test -race -count=1 -run 'TestRepair|TestResumeRepairer|TestValidateDuplicateTime|TestDownsampleDirtyTail|TestCleanFloorsMinPoints' ./internal/traj
	$(GO) test -race -count=1 -run 'TestDirty|TestFamilies|TestEveryFamilyRepairs|TestCorrupt|TestCompose|TestOutlierInStop|TestDupOfOutlier' ./internal/gen
	$(GO) test -race -count=1 -run 'TestSimplifyRepair|TestBatchRepair|TestStreamRepair|TestStreamRejectCodes|TestSpillEnvelopeV1|TestPointsErrorCode' ./internal/server

# Full gate: vet + build + race-detector test run (exercises the parallel
# trainer and evaluation paths) + a fuzz smoke pass over every fuzz
# target (override the per-target budget with FUZZTIME=30s).
check:
	sh scripts/check.sh

# Regenerate the rollout-engine benchmark baseline (BENCH_rollout.json).
bench-rollout:
	sh scripts/bench_rollout.sh

# Benchmark the metrics primitives (counter/gauge/histogram hot paths and
# the text encoder).
bench-obs:
	$(GO) test ./internal/obs -run '^$$' -bench . -benchmem

# Regenerate the batched-inference throughput baseline (BENCH_batch.json):
# ForwardBatch vs per-state Forward, BatchEngine vs sequential Simplify,
# the exact-vs-fast kernel comparison, per-core scaling and a short
# sustained-load pair.
bench-batch:
	sh scripts/bench_batch.sh

# FastMath kernel micro benches: FastTanh vs math.Tanh and the fused
# batch forward against the exact batched kernel.
bench-fast:
	$(GO) test ./internal/nn -run '^$$' -bench 'FastTanh|MathTanh|ForwardBatch64' -benchmem

# Sustained-load serving benchmark (exact + fastmath), 10s per mode;
# LOAD_DURATION overrides.
bench-load:
	sh scripts/bench_load.sh
