#!/usr/bin/env bash
# Builds the heartbeat-path benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other build artifact live
# under $CARGO_TARGET_DIR (default .bench_build), resolved against the
# repository root. The result is the last line of standard output; the
# build's own output goes to standard error.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/go-config" GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$bench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
