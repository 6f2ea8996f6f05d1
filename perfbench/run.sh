#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-churn --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, its scratch files, the
# binary, the go command's own state) stays under .bench_build in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -commit "$commit" "$@"
