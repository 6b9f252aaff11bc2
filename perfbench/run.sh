#!/usr/bin/env bash
# Builds rlts-server and the perfbench program from the checkout's source,
# then runs perfbench with the given arguments:
#
#	bash perfbench/run.sh --workload batch_plus --seed 1 --seconds 30 --trace 0
#	bash perfbench/run.sh --selftest
#
# Run from the repository root. Everything the build and the run leave
# behind goes under .bench_build/ in the current directory, including the
# Go build cache and the go command's telemetry, so the run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
# The go command keeps telemetry counters under the user config directory.
# In its default "local" mode the first go command of a day spawns a
# detached telemetry child that outlives the build; mode "off" starts none,
# so no process of the run is left behind, even when the build fails.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

# A tree without the repository's sources (only the benchmark) fails here,
# with the compiler's message on stderr and nothing on stdout.
go build -o "$out/bin/rlts-server" ./cmd/rlts-server
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" --root "$root" --server "$out/bin/rlts-server" "$@"
