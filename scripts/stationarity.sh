#!/bin/sh
# stationarity.sh asks whether POST /api/jobs costs the same on an old server
# as on a new one: it boots one gyan-server -journal, pushes JOBS jobs of the
# http_jobs mix (80 % seqstats, 10 % bonito bare, 10 % bonito under docker)
# through it in a closed loop on one keep-alive connection, and prints the
# rate of every block of BLOCK jobs and the server's peak RSS (VmHWM) after
# each. Any reply that is not a 201 with state "ok" fails the script.
#
#   sh scripts/stationarity.sh [JOBS]      (default 5000; BLOCK=1000 PORT=18081)
#
# Rates include curl's own per-request cost and are comparable only between
# runs of this script on one machine (EXPERIMENTS.md).
set -eu

JOBS="${1:-5000}"
BLOCK="${BLOCK:-1000}"
PORT="${PORT:-18081}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"

go build -o "$TMP/gyan-server" ./cmd/gyan-server
"$TMP/gyan-server" -addr "127.0.0.1:$PORT" -journal "$TMP/journal" >"$TMP/log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

up=0
for _ in $(seq 1 100); do
	if curl -fsS "$BASE/api/version" >/dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.2
done
if [ "$up" -ne 1 ]; then
	echo "stationarity: server never came up; log follows" >&2
	cat "$TMP/log" >&2
	exit 1
fi

# One curl config per block: BLOCK requests on one connection, the mix dealt
# in tens.
i=0
while [ "$i" -lt "$BLOCK" ]; do
	case $((i % 10)) in
	4) body='{"tool":"bonito","dataset":"acinetobacter_pittii","params":{"scale":"0.001"}}' ;;
	9) body='{"tool":"bonito","dataset":"acinetobacter_pittii","runtime":"docker","params":{"scale":"0.001"}}' ;;
	*) body='{"tool":"seqstats","dataset":"alzheimers_nfl"}' ;;
	esac
	[ "$i" -gt 0 ] && echo next
	printf 'url = "%s/api/jobs"\ndata = "%s"\nwrite-out = "\\n%%{http_code}\\n"\n' \
		"$BASE" "$(printf '%s' "$body" | sed 's/"/\\"/g')"
	i=$((i + 1))
done >"$TMP/block.curl"

now() { date +%s.%N; }
done_jobs=0
while [ "$done_jobs" -lt "$JOBS" ]; do
	t0=$(now)
	curl -sS -K "$TMP/block.curl" >"$TMP/replies"
	t1=$(now)
	acked=$(grep -c '^201$' "$TMP/replies" || true)
	ok=$(grep -c '"state":"ok"' "$TMP/replies" || true)
	if [ "$acked" -ne "$BLOCK" ] || [ "$ok" -ne "$BLOCK" ]; then
		echo "stationarity: block after job $done_jobs: $acked of $BLOCK answered 201, $ok ok" >&2
		tail -5 "$TMP/log" >&2
		exit 1
	fi
	done_jobs=$((done_jobs + BLOCK))
	hwm=$(awk '/^VmHWM:/ {printf "%.0f", $2 / 1024}' "/proc/$PID/status")
	echo "$t0 $t1 $done_jobs $BLOCK $hwm" | awk '{printf "jobs %6d..%-6d %7.1f jobs/s   VmHWM %5d MB\n", $3 - $4 + 1, $3, $4 / ($2 - $1), $5}'
done
