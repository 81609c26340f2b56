#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload regen --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) and the spans of traced runs stay under .bench_build/ at the
# root of the checkout. Build output goes to standard error, so the
# benchmark's result stays the last line of standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
  TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . >&2)
cd "$root"
exec "$out/perfbench" --spans "$out/spans" "$@"
