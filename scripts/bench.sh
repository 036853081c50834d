#!/usr/bin/env bash
# Runs the root bench suite with -benchmem and records the results as
# BENCH_<date><label>.json in the repo root, so the performance trajectory
# of the simulator is tracked in-tree.
#
# Usage:
#   scripts/bench.sh                 # full suite, 2s per bench
#   BENCH='E06|E08' scripts/bench.sh # filter benches by regex
#   LABEL=-pre scripts/bench.sh      # suffix the output file name
#   BENCHTIME=1x scripts/bench.sh    # single iteration (smoke run)
#   PKGS='. ./internal/graph' scripts/bench.sh  # packages to bench (default .)
#
# The full suite includes BenchmarkTDynamicChecker (delta-feed vs oracle
# verification at N=4096), so the perf trajectory tracks checker cost;
# BENCH_<date>-verify.json holds its dedicated baseline.
set -euo pipefail

cd "$(dirname "$0")/.."

BENCH="${BENCH:-.}"
LABEL="${LABEL:-}"
# 2s per benchmark by default: enough iterations that ns/op is a mean,
# not a single cold-cache sample (recordings made at BENCHTIME=1x report
# iterations:1 and should not be compared against averaged runs). Heavy
# one-shot benches still run once if a single iteration exceeds 2s.
BENCHTIME="${BENCHTIME:-2s}"
COUNT="${COUNT:-1}"
PKGS="${PKGS:-.}"
OUT="BENCH_$(date +%F)${LABEL}.json"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" \
	-count "$COUNT" -timeout 60m $PKGS | tee "$TMP"

# num_cpu/gomaxprocs make the scaling-matrix caveat machine-readable:
# recordings from a 1-CPU box can be filtered out before comparing
# >1-worker cells (see docs/benchmarking.md).
NUM_CPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
EFFECTIVE_GOMAXPROCS="${GOMAXPROCS:-$NUM_CPU}"

# The dynlint commit ties each recording to the exact contract-checker
# state that vetted the tree (see docs/linting.md); -dirty marks
# uncommitted changes.
DYNLINT_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet 2>/dev/null || ! git diff --cached --quiet 2>/dev/null; then
	DYNLINT_COMMIT="${DYNLINT_COMMIT}-dirty"
fi
DYNLINT_VERSION="$(go run ./scripts/dynlint -version 2>/dev/null || echo unknown)"

awk -v date="$(date -u +%FT%TZ)" -v goversion="$(go env GOVERSION)" \
	-v host="$(uname -sm)" -v ncpu="$NUM_CPU" -v gmp="$EFFECTIVE_GOMAXPROCS" \
	-v dlver="$DYNLINT_VERSION" -v dlcommit="$DYNLINT_COMMIT" '
BEGIN {
	printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"host\": \"%s\",\n  \"num_cpu\": %d,\n  \"gomaxprocs\": %d,\n  \"dynlint\": \"%s\",\n  \"dynlint_commit\": \"%s\",\n  \"benchmarks\": [", date, goversion, host, ncpu, gmp, dlver, dlcommit
	first = 1
}
/^Benchmark/ && NF >= 4 {
	name = $1
	iters = $2
	ns = ""; bytes = ""; allocs = ""; extra = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		v = $i; u = $(i + 1)
		if (u == "ns/op") ns = v
		else if (u == "B/op") bytes = v
		else if (u == "allocs/op") allocs = v
		else {
			if (extra != "") extra = extra ", "
			extra = extra sprintf("\"%s\": %s", u, v)
		}
	}
	if (!first) printf ","
	first = 0
	printf "\n    {\"name\": \"%s\", \"iterations\": %s", name, iters
	if (ns != "") printf ", \"ns_per_op\": %s", ns
	if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	if (extra != "") printf ", \"metrics\": {%s}", extra
	printf "}"
}
END { printf "\n  ]\n}\n" }
' "$TMP" > "$OUT"

echo "wrote $OUT"
