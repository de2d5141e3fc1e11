#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this is
# the command BENCHMARK.json names. Everything the build and the run write —
# Go's build cache, temporary files and the go tool's own configuration, the
# binary, data directories — goes under .bench_build in the current directory
# (the checkout root), and results go under benchmark/out. Arguments are
# passed through:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# The go tool's telemetry, left in its default mode, starts a detached child
# (own session, outlives `go build`) whenever its configuration directory has
# no fresh upload token — which a new checkout never has. Mode off starts none,
# so no process is left behind whether the build succeeds or fails.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
if [ "$(go env GOTELEMETRY)" != off ]; then
	echo "run.sh: go telemetry is not off; refusing to start the go tool" >&2
	exit 1
fi
go build -o "$build/encdbdb-benchmark" ./benchmark
# Not exec: the shell stays the parent and waits for the benchmark to end.
"$build/encdbdb-benchmark" "$@"
