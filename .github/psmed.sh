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
