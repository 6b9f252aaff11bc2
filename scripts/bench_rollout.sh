#!/bin/sh
# Regenerates BENCH_rollout.json: the rollout-engine benchmark baseline.
#
# BenchmarkTrainParallel trains the same policy (bit-identical output) at
# workers=1/2/4; the speedup column is only meaningful when GOMAXPROCS > 1.
# The micro benches document the zero-allocation hot paths and the
# SegmentError span kernels (median of 5 per case).
set -e
cd "$(dirname "$0")/.."

# Provenance: the baseline file records both values so a reader can tell
# whether the workers sweep was measured on real parallel hardware.
NUM_CPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
MAXPROCS="${GOMAXPROCS:-$NUM_CPU}"
echo "== provenance: num_cpu=$NUM_CPU gomaxprocs=$MAXPROCS =="
if [ "$MAXPROCS" = 1 ]; then
	echo '########################################################################' >&2
	echo "# WARNING: GOMAXPROCS=1 (num_cpu=$NUM_CPU)." >&2
	echo '# The workers sweep below is flat by construction on one scheduler' >&2
	echo '# thread; record these numbers as single-core provenance only.' >&2
	echo '########################################################################' >&2
fi
echo "== TrainParallel =="
go test . -run xxx -bench BenchmarkTrainParallel -benchmem -benchtime 3x
echo "== Hot-path allocation benches =="
go test ./internal/rl/ -run xxx -bench 'Rollout|ProbsInto' -benchmem
go test ./internal/core/ -run xxx -bench BenchmarkBuildState -benchmem
go test ./internal/buffer/ -run xxx -bench BenchmarkKLowest -benchmem
echo "== SegmentError span kernels (segment_error section) =="
go test ./internal/errm/ -run xxx -bench BenchmarkSegmentError -benchmem -count 5
echo
echo "Update BENCH_rollout.json with the numbers above, including the"
echo "machine block's num_cpu=$NUM_CPU and gomaxprocs=$MAXPROCS; on a"
echo "single-core runner the workers sweep is flat by construction."
