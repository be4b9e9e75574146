#!/usr/bin/env bash
# Builds psmebench once, then runs it in the foreground, one process per
# workload. Run from anywhere; everything it writes lands in benchmark/out.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload: the command BENCHMARK.json names. The binary replaces
#       this shell, so whoever started the run holds the only process there is.
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [-quick]
#       all five workloads in turn, each under `timeout -k`.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/benchmark/out"
mkdir -p "$out/tmp"

# A run that was killed could not remove its durable-session directories.
rm -rf "$out"/data-*

# The build reads and writes only inside the checkout: its cache, its
# scratch space and the toolchain's own bookkeeping all point into out/.
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
    go build -C benchmark -o out/psmebench .

for arg in "$@"; do
    case "$arg" in
    -workload | --workload | -workload=* | --workload=*)
        exec "$out/psmebench" "$@"
        ;;
    esac
done

# The binary's own watchdog fires at three times a run's nominal length;
# timeout is the second line, and -k the third.
status=0
for w in soar-learn match-replay serve-ingest-b1 serve-durable-b8 serve-failover; do
    timeout -k 5 170 "$out/psmebench" --workload "$w" "$@" || status=$?
done
rm -rf "$out"/data-*
exit "$status"
