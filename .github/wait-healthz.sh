#!/usr/bin/env bash
# Blocks until every daemon named on the command line answers GET /healthz
# (psmed and psmegw both serve it, and psmed's -kill-after does not count
# it), instead of sleeping and hoping ListenAndServe has won the race.
#
#   .github/wait-healthz.sh HOST:PORT [HOST:PORT ...]
#
# Exits nonzero if one of them is still not answering after 15 seconds. Each
# probe is itself bounded, so a daemon that accepts and never answers cannot
# hold the script past the deadline.
set -u
deadline=$((SECONDS + 15))
for addr in "$@"; do
    until curl -sf --max-time 1 -o /dev/null "http://$addr/healthz"; do
        if [ "$SECONDS" -ge "$deadline" ]; then
            echo "wait-healthz: $addr not ready after 15s" >&2
            exit 1
        fi
        sleep 0.05
    done
done
