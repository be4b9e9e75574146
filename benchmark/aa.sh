#!/usr/bin/env bash
# A/A noise protocol: runs the whole suite 2 x N times on the same code,
# alternating the two sets (A B A B ...) so slow host drift lands on both,
# and prints for every end-to-end metric of every workload both medians,
# their difference as a share of A's, and max-min within each set as a
# share of that set's median. A difference beyond the metric's bound in
# BENCHMARK.json is marked: the benchmark cannot gate on that pair.
#
#   benchmark/aa.sh [N] [extra run.sh arguments, e.g. --seconds 5]
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
n=${1:-5}
shift || true
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
log="benchmark/out/aa-$$.jsonl"
mkdir -p benchmark/out
: >"$log"

for i in $(seq 1 "$n"); do
    for set in A B; do
        for w in $workloads; do
            line=$(benchmark/run.sh --workload "$w" --seed "$i" --seconds "$secs" --trace 0 "$@" 2>/dev/null | tail -n 1)
            echo "{\"set\":\"$set\",\"workload\":\"$w\",\"result\":$line}" >>"$log"
        done
    done
done

python3 - "$log" <<'PY'
import collections, json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
vals = collections.defaultdict(list)
failed = 0
for line in open(sys.argv[1]):
    rec = json.loads(line)
    failed += rec["result"]["failed"]
    for name, m in rec["result"]["metrics"].items():
        vals[rec["workload"], name, rec["set"]].append(m["value"])

print(f"| workload | metric | median A | median B | B vs A | spread A | spread B | bound |")
print(f"|---|---|---|---|---|---|---|---|")
bad = 0
for w in [x["name"] for x in bench["workloads"]]:
    for name in bound:
        a, b = vals[w, name, "A"], vals[w, name, "B"]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = (mb - ma) / ma
        worse = diff if better[name] == "lower" else -diff
        mark = " **over**" if worse > bound[name] else ""
        bad += bool(mark)
        sa, sb = (max(a) - min(a)) / ma, (max(b) - min(b)) / mb
        print(f"| {w} | {name} | {ma:.4g} | {mb:.4g} | {diff:+.1%}{mark} | {sa:.1%} | {sb:.1%} | {bound[name]:.0%} |")
print(f"\n{failed} failed ops; {bad} metric/workload pairs beyond their bound")
sys.exit(1 if bad or failed else 0)
PY
