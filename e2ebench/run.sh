#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload. Run it
# from the repository root; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# (.bench_build, or $CARGO_TARGET_DIR when set): the Go build cache, Go's
# configuration and telemetry directory, the binary, temporary files, sink
# output and spans. Nothing is downloaded.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
dir=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$dir"
build=$(cd "$dir" && pwd)
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
(
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
	cd "$here" && go build -o "$build/e2ebench" .
)
exec "$build/e2ebench" --work "$build/work" "$@"
