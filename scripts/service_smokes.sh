#!/usr/bin/env sh
# Service smokes: the release `serve` binary driven over loopback by
# `loadgen`, one block per served path. Every loadgen run compares each
# reply byte for byte with the local library's answer and exits non-zero
# unless its report ends in `"passed": true`; the greps below restate the
# headline assertions so a reader sees them here. Servers and proxies
# bind ephemeral ports. Reports and postmortems land in target/.
#
#     sh scripts/service_smokes.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> build serve, loadgen, chaosproxy (release)"
cargo build --release -q -p disparity-service --bin serve \
    -p disparity-experiments --bin loadgen --bin chaosproxy
bin=./target/release

# Background processes still running when the script exits (on a failed
# step) are killed.
PIDS=""
trap 'for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done' EXIT

# await_listening LOG PID WHAT: waits for the `listening on ADDR` line
# that serve and chaosproxy print once bound, and prints ADDR.
await_listening() {
    tries=0
    until grep -q '^listening on ' "$1"; do
        tries=$((tries + 1))
        if [ "$tries" -ge 50 ] || ! kill -0 "$2" 2>/dev/null; then
            echo "service_smokes: $3 did not come up" >&2
            return 1
        fi
        sleep 0.1
    done
    sed -n 's/^listening on //p' "$1"
}

# start_serve NAME SERVE_ARGS...: starts `serve` in the background on an
# ephemeral loopback port; sets SERVE_PID and SERVE_ADDR.
start_serve() {
    log="target/smoke-$1-serve.log"
    name=$1
    shift
    "$bin/serve" --addr 127.0.0.1:0 "$@" > "$log" &
    SERVE_PID=$!
    PIDS="$PIDS $SERVE_PID"
    SERVE_ADDR=$(await_listening "$log" "$SERVE_PID" "serve ($name)")
}

passed() {
    grep -q '"passed": *true' "$1"
}

echo "==> service smoke (disparity replay: cache hits, overload bounce, dump, latency series, clean drain)"
rm -rf target/service-load.json target/service-metrics.json \
    target/service-latency-series.ndjson target/postmortems-service
# Small worker pool and queue so the overload probe reliably bounces;
# the replay retries a bounced request after a backoff.
start_serve service --workers 2 --queue 4 \
    --obs --metrics-out target/service-metrics.json \
    --metrics-interval-ms 50 --postmortem-dir target/postmortems-service
"$bin/loadgen" --addr "$SERVE_ADDR" --mode disparity \
    --spec specs/waters_clean.json --requests 40 --connections 4 --retries 3 \
    --probe-overload 20 --dump --shutdown \
    --latency-series target/service-latency-series.ndjson \
    --out target/service-load.json
wait "$SERVE_PID"
passed target/service-load.json
grep -q '"cache_hits": *[1-9]' target/service-load.json
grep -q '"overloaded": *[1-9]' target/service-load.json
test -s target/service-metrics.json
grep -q '"disparity-obs/metrics-v1"' target/service-metrics.json
grep -q 'service.cache' target/service-metrics.json
# Live-telemetry artifacts: the windowed latency timeline and the
# flight-recorder postmortem the `dump` op wrote.
test -s target/service-latency-series.ndjson
grep -q '"window"' target/service-latency-series.ndjson
grep -q '"disparity-obs/postmortem-v1"' target/postmortems-service/postmortem-*.ndjson

echo "==> patch smoke (seeded WCET edits against the base hash, patched + memo hits)"
rm -f target/edit-replay.json
start_serve patch --workers 2 --queue 16
"$bin/loadgen" --addr "$SERVE_ADDR" --mode patch \
    --spec specs/waters_clean.json --requests 24 --shutdown \
    --out target/edit-replay.json
wait "$SERVE_PID"
passed target/edit-replay.json
grep -q '"patched": *[1-9]' target/edit-replay.json
grep -q '"patch_memo_hits": *[1-9]' target/edit-replay.json

echo "==> optimize smoke (budget sweep against the base hash, plans + scored states)"
# perception.json, not waters_clean.json: the WATERS spec has no useful
# buffer candidates (every midpoint gap is below a source period), so
# its plans are all no-ops and the scored-states gate would trip.
rm -f target/optimize-replay.json
start_serve optimize --workers 2 --queue 16
"$bin/loadgen" --addr "$SERVE_ADDR" --mode optimize \
    --spec specs/perception.json --requests 10 --shutdown \
    --out target/optimize-replay.json
wait "$SERVE_PID"
passed target/optimize-replay.json
grep -q '"optimized": *[1-9]' target/optimize-replay.json

echo "==> chaos smoke (chaosproxy per fault kind, quarantine under fire, every worker alive)"
rm -rf target/chaos-*.json target/chaos-*-series.ndjson target/postmortems-chaos
start_serve chaos --workers 2 --queue 16 \
    --metrics-interval-ms 50 --postmortem-dir target/postmortems-chaos
CHAOS_SERVE_PID=$SERVE_PID
CHAOS_SERVE_ADDR=$SERVE_ADDR
for kind in none delay split garbage truncate reset; do
    "$bin/chaosproxy" --listen 127.0.0.1:0 --upstream "$CHAOS_SERVE_ADDR" \
        --kind "$kind" --seed 7 > "target/chaosproxy-$kind.log" &
    PROXY_PID=$!
    PIDS="$PIDS $PROXY_PID"
    proxy_addr=$(await_listening "target/chaosproxy-$kind.log" "$PROXY_PID" "chaosproxy ($kind)")
    # Distinct --soak-tag per kind -> distinct poison spec, so the
    # quarantine-after-two gate re-proves itself under every fault kind.
    if ! "$bin/loadgen" --addr "$proxy_addr" --mode chaos \
            --spec specs/waters_clean.json --requests 24 --connections 3 \
            --retries 6 --soak-tag "$kind" --direct-addr "$CHAOS_SERVE_ADDR" \
            --out "target/chaos-$kind.json" \
            --latency-series "target/chaos-$kind-series.ndjson"; then
        echo "service_smokes: chaos run failed under kind '$kind'" >&2
        exit 1
    fi
    kill "$PROXY_PID" 2>/dev/null || true
    wait "$PROXY_PID" 2>/dev/null || true
    passed "target/chaos-$kind.json"
    grep -q '"rejected_seen": *true' "target/chaos-$kind.json"
    test -s "target/chaos-$kind-series.ndjson"
done
"$bin/loadgen" --addr "$CHAOS_SERVE_ADDR" --mode disparity \
    --spec specs/waters_clean.json --requests 0 --shutdown >/dev/null
wait "$CHAOS_SERVE_PID"
# Every kind's quarantine probe panicked a worker twice: the flight
# recorder must have written panic + quarantine postmortems.
grep -ql '"reason":"panic"' target/postmortems-chaos/postmortem-*.ndjson
grep -ql '"reason":"quarantine"' target/postmortems-chaos/postmortem-*.ndjson

echo "service_smokes: all smokes passed"
