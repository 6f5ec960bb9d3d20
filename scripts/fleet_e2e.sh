#!/usr/bin/env bash
# fleet_e2e.sh — end-to-end check of the fleet serving path.
#
# Builds specfront + specserve, boots 1 front + 2 backends on loopback,
# and drives real traffic through the front:
#
#   * predicts route consistently and answer 200,
#   * a monitor session is pinned to one backend for every step,
#   * SIGTERM-killing the backend that owns the traffic mid-run costs
#     ZERO 5xx — requests fail over to the surviving replica,
#   * the front's fleet view settles to the surviving backend.
#
# Any 5xx anywhere, a routing flap, or a missed failover fails the script.
#
# Usage: scripts/fleet_e2e.sh
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
e2e_init fleet_e2e

FRONT_PORT=19080
B1_PORT=19081
B2_PORT=19082
FRONT="http://127.0.0.1:${FRONT_PORT}"

echo "== build"
go build -o "$TMP/specserve" ./cmd/specserve
go build -o "$TMP/specfront" ./cmd/specfront

echo "== train demo model"
"$TMP/specserve" -train-demo "$TMP/models" -demo-samples 120 >"$TMP/train.log" 2>&1

echo "== boot 2 backends + 1 front"
spawn b1.log "$TMP/specserve" -models "$TMP/models" -addr "127.0.0.1:${B1_PORT}"
B1_PID=$SPAWN_PID
spawn b2.log "$TMP/specserve" -models "$TMP/models" -addr "127.0.0.1:${B2_PORT}"
B2_PID=$SPAWN_PID

wait_http "http://127.0.0.1:${B1_PORT}/healthz"
wait_http "http://127.0.0.1:${B2_PORT}/healthz"

spawn front.log "$TMP/specfront" -addr "127.0.0.1:${FRONT_PORT}" \
    -backends "http://127.0.0.1:${B1_PORT},http://127.0.0.1:${B2_PORT}" \
    -health-interval 200ms -retry-backoff 10ms
wait_http "${FRONT}/healthz"

wait_fleet_healthy "$FRONT" 2

BODY='{"model":"ms-demo","intensities":[0.1,0.9,0.3,0.7,0.2,0.8,0.4,0.6,0.5,0.1,0.9,0.3,0.7,0.2,0.8,0.4]}'

# predict runs one predict through the front, appends the status code to
# the 5xx ledger, asserts 200, and prints the backend that answered.
STATUS_LOG="$TMP/statuses"
predict() {
    local hdr="$TMP/hdr.$$"
    local code
    code=$(curl -s -o "$TMP/resp.$$" -D "$hdr" -w '%{http_code}' \
        -X POST "${FRONT}/v1/predict" -H 'Content-Type: application/json' -d "$BODY")
    echo "$code" >>"$STATUS_LOG"
    if [ "$code" != "200" ]; then
        echo "fleet_e2e: predict answered $code: $(cat "$TMP/resp.$$")" >&2
        return 1
    fi
    tr -d '\r' <"$hdr" | awk -F': ' 'tolower($1)=="x-specml-backend" {print $2}'
}

echo "== predict traffic (both backends up)"
OWNER=$(predict)
if [ -z "$OWNER" ]; then
    echo "fleet_e2e: predict response missing X-Specml-Backend" >&2
    exit 1
fi
for _ in $(seq 1 19); do
    got=$(predict)
    if [ "$got" != "$OWNER" ]; then
        echo "fleet_e2e: model routing flapped: $OWNER then $got" >&2
        exit 1
    fi
done
echo "   20/20 predicts ok, all routed to $OWNER"

echo "== monitor session stickiness"
SESS_HDR="$TMP/sess_hdr"
SESS_RESP=$(curl -s -D "$SESS_HDR" -X POST "${FRONT}/v1/monitor" \
    -H 'Content-Type: application/json' -d '{"model":"ms-demo","smoothing":0.5}')
SESSION=$(echo "$SESS_RESP" | grep -o '"session":"[^"]*"' | cut -d'"' -f4)
SESS_BACKEND=$(tr -d '\r' <"$SESS_HDR" | awk -F': ' 'tolower($1)=="x-specml-backend" {print $2}')
if [ -z "$SESSION" ] || [ -z "$SESS_BACKEND" ]; then
    echo "fleet_e2e: monitor create failed: $SESS_RESP" >&2
    exit 1
fi
for i in $(seq 1 10); do
    hdr="$TMP/step_hdr"
    code=$(curl -s -o "$TMP/step_resp" -D "$hdr" -w '%{http_code}' \
        -X POST "${FRONT}/v1/monitor/${SESSION}/step" \
        -H 'Content-Type: application/json' -d "$BODY")
    echo "$code" >>"$STATUS_LOG"
    got=$(tr -d '\r' <"$hdr" | awk -F': ' 'tolower($1)=="x-specml-backend" {print $2}')
    if [ "$code" != "200" ] || [ "$got" != "$SESS_BACKEND" ]; then
        echo "fleet_e2e: step $i: code $code via ${got:-?}, session lives on $SESS_BACKEND" >&2
        cat "$TMP/step_resp" >&2
        exit 1
    fi
done
echo "   session $SESSION pinned to $SESS_BACKEND for 10/10 steps"

echo "== SIGTERM the backend owning the predict traffic ($OWNER)"
case "$OWNER" in
*:${B1_PORT}) kill -TERM "$B1_PID" ;;
*:${B2_PORT}) kill -TERM "$B2_PID" ;;
*)
    echo "fleet_e2e: unrecognized backend name $OWNER" >&2
    exit 1
    ;;
esac

echo "== predict traffic through the failover"
NEW_OWNER=""
for i in $(seq 1 40); do
    got=$(predict) # asserts 200: failover must never surface an error
    if [ "$got" = "$OWNER" ] && [ "$i" -gt 20 ]; then
        echo "fleet_e2e: predict $i still attributed to the killed backend $OWNER" >&2
        exit 1
    fi
    NEW_OWNER=$got
done
if [ "$NEW_OWNER" = "$OWNER" ] || [ -z "$NEW_OWNER" ]; then
    echo "fleet_e2e: traffic never failed over from $OWNER" >&2
    exit 1
fi
echo "   40/40 predicts ok, traffic now on $NEW_OWNER"

echo "== fleet view settles to 1 healthy backend"
wait_fleet_healthy "$FRONT" 1

# The ledger is the hard gate: every status code seen by a client, with
# zero 5xx tolerated across the kill.
FIVEXX=$(grep -c '^5' "$STATUS_LOG" || true)
TOTAL=$(wc -l <"$STATUS_LOG")
if [ "$FIVEXX" != "0" ]; then
    echo "fleet_e2e: ${FIVEXX}/${TOTAL} requests answered 5xx" >&2
    exit 1
fi
echo "== PASS: ${TOTAL} requests, zero 5xx, failover + session pinning verified"
