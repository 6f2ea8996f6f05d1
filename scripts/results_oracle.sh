#!/usr/bin/env bash
# Rendered-output oracle: `hermes-bench -exp all -seed 1` must match the
# committed docs/RESULTS.txt once the host-dependent parts are normalized:
# `wall Ns` elapsed times, the scale sweep's `ratio Nx` throughput ratios,
# and the table5 block (measured microbenchmarks, from its `### table5`
# header through its `measured ns/op` line). Everything else is
# deterministic for a seed, so any other difference is a behaviour change.
#
# Usage (from the repo root): bash scripts/results_oracle.sh
# After an intended output change, regenerate the reference with
#   go run ./cmd/hermes-bench -exp all -seed 1 > docs/RESULTS.txt
set -euo pipefail

normalize() {
  sed -E -e 's/wall [0-9.]+s/wall Ns/g' -e 's/ratio [0-9.]+x/ratio Nx/g' "$1" |
    awk '/^### table5/ { skip = 1 } !skip { print } skip && /^measured ns\/op/ { skip = 0 }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/hermes-bench -exp all -seed 1 > "$tmp/run.txt"
normalize docs/RESULTS.txt > "$tmp/want.txt"
normalize "$tmp/run.txt" > "$tmp/got.txt"
if diff -u "$tmp/want.txt" "$tmp/got.txt"; then
  echo "results oracle: -exp all -seed 1 matches docs/RESULTS.txt"
else
  echo "::error::-exp all -seed 1 differs from docs/RESULTS.txt (regenerate it if the change is intended)"
  exit 1
fi
