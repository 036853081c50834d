#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes stays under .bench_build/ at the root of the
# checkout: the binary, the Go build cache and, through XDG_CONFIG_HOME,
# the go command's local telemetry counters.
# The build fails, and the script exits non-zero without a result, when
# the simulator's sources are not next to this directory.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off

(cd "$root/bench" && go build -o "$out/dynbench" .)

# The header names the measured source: the git commit when this is a
# git checkout, else a hash of the Go sources and module files.
if id="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	git -C "$root" diff --quiet HEAD 2>/dev/null || id="$id-dirty"
else
	id="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
export DYNBENCH_SOURCE="$id"

exec "$out/dynbench" "$@"
