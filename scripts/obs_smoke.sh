#!/bin/sh
# obs_smoke.sh boots a real gyan-server, pushes one job through it, and
# scrapes the observability surface end to end: /metrics must expose the
# gyan_ series and /api/trace/{id} must return a non-empty trace. Any
# non-200 or empty body fails the script — this is CI's proof that the
# metrics registry, the trace store and their HTTP plumbing are actually
# wired, not just unit-tested.
set -eu

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="${BIN:-$(mktemp -d)/gyan-server-smoke}"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/gyan-server

"$BIN" -addr "127.0.0.1:$PORT" -pprof >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$BIN" "$LOG"' EXIT

# Wait for the server to answer (10s budget).
up=0
for _ in $(seq 1 50); do
	if curl -fsS "$BASE/api/version" >/dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.2
done
if [ "$up" -ne 1 ]; then
	echo "obs-smoke: server never came up; log follows" >&2
	cat "$LOG" >&2
	exit 1
fi

# One job gives the metrics and the trace something to show.
JOB=$(curl -fsS -X POST "$BASE/api/jobs" \
	-d '{"tool":"racon","dataset":"alzheimers_nfl","params":{"scale":"0.001"}}')
ID=$(printf '%s' "$JOB" | sed -n 's/.*"id":[[:space:]]*\([0-9][0-9]*\).*/\1/p')
if [ -z "$ID" ]; then
	echo "obs-smoke: submit returned no job id: $JOB" >&2
	exit 1
fi

METRICS=$(curl -fsS "$BASE/metrics")
if [ -z "$METRICS" ]; then
	echo "obs-smoke: /metrics returned an empty body" >&2
	exit 1
fi
for want in \
	'gyan_jobs_state{state="ok"}' \
	gyan_jobs_submitted_total \
	gyan_submit_to_complete_seconds_bucket \
	gyan_journal_fsync_batch_records \
	gyan_smi_cache_misses_total \
	'gyan_smi_survey_seconds_bucket{le="1e-06"}' \
	gyan_gpu_utilization_pct; do
	if ! printf '%s\n' "$METRICS" | grep -qF "$want"; then
		echo "obs-smoke: /metrics missing $want" >&2
		exit 1
	fi
done

# Mapping the job surveyed the devices at least once.
if printf '%s\n' "$METRICS" | grep -qx 'gyan_smi_survey_seconds_count 0'; then
	echo "obs-smoke: gyan_smi_survey_seconds recorded no survey" >&2
	exit 1
fi

TRACE=$(curl -fsS "$BASE/api/trace/$ID")
if ! printf '%s' "$TRACE" | grep -q '"events"'; then
	echo "obs-smoke: trace for job $ID is empty or malformed: $TRACE" >&2
	exit 1
fi
for ev in submit map start complete; do
	if ! printf '%s' "$TRACE" | grep -qF "\"$ev\""; then
		echo "obs-smoke: trace for job $ID missing event $ev: $TRACE" >&2
		exit 1
	fi
done

# -pprof was passed, so the profile endpoints must answer too.
curl -fsS "$BASE/debug/pprof/cmdline" >/dev/null || {
	echo "obs-smoke: pprof not mounted despite -pprof" >&2
	exit 1
}

echo "obs-smoke: ok (job $ID traced; /metrics live with gyan_ series)"
