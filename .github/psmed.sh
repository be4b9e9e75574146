# Starts psmed for a CI step. Source it, then start each daemon:
#
#   . .github/psmed.sh
#   start_psmed -addr HOST:PORT [psmed flags ...]
#   PSMED=$!
#
# start_psmed builds ./psmed unless a previous call already did, starts it
# in the background with the given flags, waits until it answers GET
# /healthz (.github/wait-healthz.sh) and prints its PID. It runs in the
# caller's shell, so $! is the daemon and the step stops it its own way:
# kill -TERM and `wait` for the exit status, kill -KILL, or -kill-after.
start_psmed() {
    [ -x ./psmed ] || go build -o psmed ./cmd/psmed || return 1
    local addr="" prev="" arg
    for arg in "$@"; do
        [ "$prev" = "-addr" ] && addr=$arg
        prev=$arg
    done
    if [ -z "$addr" ]; then
        echo "start_psmed: give -addr HOST:PORT" >&2
        return 1
    fi
    ./psmed "$@" &
    .github/wait-healthz.sh "$addr" || return 1
    echo "psmed on $addr: pid $!"
}

# The three CI serving smokes. Each runs in a subshell under set -e, builds
# what it needs in the current directory, and exits nonzero on the first
# failed check; ci.yml says what each one proves.

# serve_smoke: load, scrape and drain one daemon (serve-smoke job).
serve_smoke() (
    set -eo pipefail
    go build -o psmeload ./cmd/psmeload
    go build -o psmestat ./cmd/psmestat
    start_psmed -addr 127.0.0.1:8740 -listen 127.0.0.1:6071 -metrics psmed-metrics.txt
    PSMED=$!
    ./psmeload -addr http://127.0.0.1:8740 -sessions 8 -cycles 60 -batch 10
    ./psmeload -addr http://127.0.0.1:8740 -ingest -sessions 4 -deltas 480 -batch 8
    SID=$(curl -sf -X POST 127.0.0.1:8740/sessions -d '{"task":"cypress"}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
    curl -sf -X POST "127.0.0.1:8740/sessions/$SID/run" -d '{"cycles":30,"chunking":true}' > /dev/null
    curl -sf http://127.0.0.1:8740/debug/match > match.json
    python3 - <<'PY'
import json
d = json.load(open("match.json"))
assert d["sessions"], "no per-session snapshots"
agg = d["aggregate"]
for k in ("cycles", "totals", "nullRate", "productions", "depthHist", "costHist"):
    assert k in agg, f"aggregate missing {k}"
assert agg["totals"]["acts"] > 0, "no activations attributed"
assert agg["productions"], "no hot productions ranked"
PY
    ./psmestat -addr http://127.0.0.1:8740 > /dev/null
    ./psmestat -addr http://127.0.0.1:8740 -session "$SID" | grep -q 'hot productions'
    test "$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:6071/trace/last-cycle)" = 404
    curl -sf http://127.0.0.1:6071/metrics > live-metrics.txt
    python3 - <<'PY'
m = dict(l.split() for l in open("live-metrics.txt") if not l.startswith("#") and len(l.split()) == 2)
assert m["match_task_cost_us_count"] == m["match_tasks_total"] != "0", \
    f'{m["match_task_cost_us_count"]} cost observations for {m["match_tasks_total"]} tasks'
PY
    curl -sf -X DELETE "127.0.0.1:8740/sessions/$SID" > /dev/null
    kill -TERM $PSMED
    wait $PSMED
    grep -q '^serve_cycles_total 750$' psmed-metrics.txt
    grep -q '^sessions_active 0$' psmed-metrics.txt
)

# restore_storm: 32 sessions on a victim, SIGKILL, restore all on a
# survivor that compiles the program once (restore-storm-smoke job).
restore_storm() (
    set -eo pipefail
    rm -rf data && mkdir data
    start_psmed -addr 127.0.0.1:8751 -quiet -data data
    VICTIM=$!
    start_psmed -addr 127.0.0.1:8752 -quiet -data data -metrics survivor-metrics.txt
    SURVIVOR=$!
    for i in $(seq 1 32); do
        curl -sf -X POST http://127.0.0.1:8751/sessions \
            -d "{\"id\":\"storm$i\",\"task\":\"cypress\"}" > /dev/null
        curl -sf -X POST http://127.0.0.1:8751/sessions/storm$i/run \
            -d '{"cycles":3,"seq":1}' > /dev/null
    done
    kill -KILL $VICTIM
    wait $VICTIM || true
    WARM=0
    for i in $(seq 1 32); do
        OUT=$(curl -sf -X POST http://127.0.0.1:8752/sessions/storm$i/restore)
        echo "$OUT" | grep -q '"cache_hit":true' && WARM=$((WARM+1)) || true
    done
    echo "warm restores: $WARM/32"
    test "$WARM" -ge 31
    kill -TERM $SURVIVOR
    wait $SURVIVOR
    grep '^rete_image_cache_misses_total 1$' survivor-metrics.txt
    HITS=$(awk '/^rete_image_cache_hits_total /{print $2}' survivor-metrics.txt)
    test "$HITS" -ge 31
)

# failover_drill: a victim that SIGKILLs itself mid-run, psmeload failing
# its sessions over to the survivor (restore-storm-smoke job).
failover_drill() (
    set -eo pipefail
    go build -o psmeload ./cmd/psmeload
    rm -rf data && mkdir data
    start_psmed -addr 127.0.0.1:8741 -quiet -data data -kill-after 12
    VICTIM=$!
    start_psmed -addr 127.0.0.1:8742 -quiet -data data -metrics failover-metrics.txt
    SURVIVOR=$!
    ./psmeload -addr http://127.0.0.1:8741,http://127.0.0.1:8742 -sessions 6 -cycles 60 -batch 10 > load.txt
    cat load.txt
    wait $VICTIM || true
    kill -TERM $SURVIVOR
    wait $SURVIVOR
    RESTORED=$(grep -o 'failover restores: [0-9]*' load.txt | awk '{print $3}')
    test "$RESTORED" -gt 0
    grep "^serve_sessions_restored_total $RESTORED\$" failover-metrics.txt
)
