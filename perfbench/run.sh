#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into .bench_build and
# runs it with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, temporaries, the binary)
# stays under .bench_build. Without the repository's sources next to
# perfbench/ the build fails and so does the run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
