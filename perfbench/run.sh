#!/usr/bin/env bash
# Builds the benchmark and the programs it drives (driftserve, driftclean,
# kbsnap) from the checkout's source, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every build product, cache and scratch file stays under .bench_build at
# the checkout root, so a run writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/xdg"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/" \
	driftclean/cmd/driftserve driftclean/cmd/driftclean driftclean/cmd/kbsnap .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
