#!/usr/bin/env bash
# closedloop_e2e.sh — fault-injecting check of the closed recalibration loop.
#
# Builds specserve + specfront + fleetsim, boots 1 front + 2 backends on
# loopback (each serving the same demo model from its own model directory),
# and runs fleetsim with a drift schedule forced onto one device at a known
# step. The run must close the loop end to end:
#
#   * the drift detector trips on the drifted device (and only after the
#     drift began),
#   * exactly ONE recalibration fires: re-characterize -> streamed retrain
#     -> publish -> fleet-wide hot reload,
#   * the retrain publishes at a refined axis width, so requests queued
#     across the swap hit the 409 stale-width path: at least one 409 must
#     be observed AND retried by the churn workers during the reload
#     window,
#   * zero 5xx anywhere,
#   * after the reload, the recalibrated device's smoothed residual sits
#     back below its trip allowance.
#
# Usage: scripts/closedloop_e2e.sh
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
e2e_init closedloop_e2e

FRONT_PORT=19180
B1_PORT=19181
B2_PORT=19182
FRONT="http://127.0.0.1:${FRONT_PORT}"

echo "== build"
go build -o "$TMP/specserve" ./cmd/specserve
go build -o "$TMP/specfront" ./cmd/specfront
go build -o "$TMP/fleetsim" ./cmd/fleetsim

echo "== train demo model"
# A 3-compound task keeps the baseline genuinely drift-sensitive: with the
# full 8-compound task the Table-1 CNN's residual barely moves under any
# physical drift (conv shift tolerance + sum normalization), so no detector
# setting could separate drifted from healthy devices.
TASK="N2,O2,CO2"
e2e_register_log train.log
"$TMP/specserve" -train-demo "$TMP/models" -demo-task "$TASK" -demo-samples 400 -demo-epochs 4 >"$TMP/train.log" 2>&1
# Each backend reloads and publishes into its own model directory, the way
# independent replicas would.
cp -r "$TMP/models" "$TMP/models2"

echo "== boot 2 backends + 1 front"
# A dispatcher backlog keeps churn requests queued across the publish round
# trip. fleetsim only publishes once every churn worker has a request in
# flight, and 64 churn workers against a 4-request flush cap leave old-width
# rows waiting behind the model's forward passes while the swap lands,
# forcing the 409 stale-width path.
spawn b1.log "$TMP/specserve" -models "$TMP/models" -addr "127.0.0.1:${B1_PORT}" -max-batch 4
spawn b2.log "$TMP/specserve" -models "$TMP/models2" -addr "127.0.0.1:${B2_PORT}" -max-batch 4
wait_http "http://127.0.0.1:${B1_PORT}/healthz"
wait_http "http://127.0.0.1:${B2_PORT}/healthz"
spawn front.log "$TMP/specfront" -addr "127.0.0.1:${FRONT_PORT}" \
    -backends "http://127.0.0.1:${B1_PORT},http://127.0.0.1:${B2_PORT}" \
    -health-interval 200ms -retry-backoff 10ms
wait_http "${FRONT}/healthz"
wait_fleet_healthy "$FRONT" 2

echo "== closed loop: drift at scan 18, detect, retrain, hot reload"
REPORT="$TMP/report.json"
e2e_register_log fleetsim.log
"$TMP/fleetsim" -front "$FRONT" -model ms-demo -task "$TASK" -v \
    -devices 6 -steps 46 -seed 7 -churn 64 \
    -drift-device 3 -drift-start 18 -drift-ramp 6 \
    -drift-mass-shift 1.2 -drift-gain-tilt 2 -drift-fwhm-growth 3 -drift-noise-growth 6 \
    -det-calibrate 8 -det-threshold-factor 1.8 -det-trip-factor 4 \
    -det-smoothing 0.5 -det-warmup 2 \
    -recal-samples 512 -recal-epochs 3 -recal-batch 32 \
    -recal-topology table1 -recal-axis-scale 2 \
    -recal-checkpoint "$TMP/recal.ckpt" \
    -report "$REPORT" 2>"$TMP/fleetsim.log"
cat "$TMP/fleetsim.log"

echo "== assert the loop closed"
TRIP_STEP=$(report_field "$REPORT" trip_step)
TRIP_DEVICE=$(report_field "$REPORT" trip_device)
RECALS=$(report_field "$REPORT" recals)
RELOADS=$(report_field "$REPORT" reloads)
CONFLICTS=$(report_field "$REPORT" conflicts_409)
RETRIES=$(report_field "$REPORT" conflict_retries)
FIVEXX=$(report_field "$REPORT" server_5xx)
BELOW=$(report_field "$REPORT" below_threshold)
SHA=$(report_field "$REPORT" model_sha256)

fail() {
    echo "closedloop_e2e: $*" >&2
    cat "$REPORT" >&2
    exit 1
}

[ "$TRIP_DEVICE" = "3" ] || fail "trip on device ${TRIP_DEVICE}, want the drifted device 3"
[ "$TRIP_STEP" -gt 18 ] || fail "trip at step ${TRIP_STEP}, before the drift began at scan 18"
[ "$RECALS" = "1" ] || fail "want exactly 1 recalibration, got ${RECALS}"
[ "$RELOADS" = "1" ] || fail "want exactly 1 fleet reload, got ${RELOADS}"
[ -n "$SHA" ] || fail "report carries no retrained-model digest"
[ "$FIVEXX" = "0" ] || fail "${FIVEXX} requests answered 5xx"
[ "$CONFLICTS" -ge 1 ] || fail "no 409 stale-width response observed during the reload window"
[ "$RETRIES" -ge 1 ] || fail "409s observed but never retried"
[ "$BELOW" = "true" ] || fail "post-reload residual still above the trip allowance"

echo "== assert both backends serve the recalibrated width"
for port in "$B1_PORT" "$B2_PORT"; do
    if ! curl -fsS "http://127.0.0.1:${port}/v1/models" | grep -q '"inputLen":397'; then
        echo "closedloop_e2e: backend :${port} does not serve the 397-wide recalibrated model:" >&2
        curl -fsS "http://127.0.0.1:${port}/v1/models" >&2 || true
        exit 1
    fi
done

echo "== PASS: drift@${TRIP_STEP} on device ${TRIP_DEVICE} -> 1 recal, 1 reload, ${CONFLICTS} 409s retried, zero 5xx"
