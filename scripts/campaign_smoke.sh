#!/bin/sh
# campaign_smoke.sh — end-to-end smoke of the multi-process campaign driver
# (cmd/vsvcampaign).
#
# Runs the same small campaign twice: once sequentially through
# cmd/experiments, once through cmd/vsvcampaign forked across 4 worker
# processes sharing a work-stealing ledger. The two stdout streams must be
# byte-identical: process count is an execution detail, never a different
# computation. A second pass kills one worker mid-campaign (the chaos
# drill) and demands the same bytes again — a crashed worker's claimed
# points must be re-stolen, not lost. A checkpoint drill crashes a
# single-process `experiments -checkpoint` run mid-append through the
# ledger.append failpoint; the -resume run must print the same bytes. A
# final pass kills the campaign *server* (cmd/vsvserve, kill -9, no
# shutdown) mid-job and restarts it on the same durable journal: the
# interrupted job must resume under its original id and serve the same
# bytes once more.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
PROCS=${PROCS:-4}
WARMUP=8000
INSTRUCTIONS=40000
EXP=table2

workdir=$(mktemp -d)
serverpid=""
cleanup() {
	[ -n "$serverpid" ] && kill "$serverpid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

CURL="curl -sS --fail-with-body"

# start_server LOGFILE: boots vsvserve on an ephemeral port against the
# shared journal and sets $serverpid and $base. Runs in the main shell
# (not a command substitution) so both variables survive; the server's
# stdout goes to /dev/null so nothing holds inherited pipes open.
start_server() {
	log=$1
	"$workdir/vsvserve" -addr 127.0.0.1:0 -parallel 4 \
		-journal "$workdir/jobs.journal" >/dev/null 2>"$log" &
	serverpid=$!
	base=""
	for _ in $(seq 1 50); do
		base=$(sed -n 's/^vsvserve: listening on //p' "$log")
		[ -n "$base" ] && break
		kill -0 "$serverpid" 2>/dev/null || { cat "$log" >&2; exit 1; }
		sleep 0.1
	done
	[ -n "$base" ] || { echo "campaign-smoke: server never bound" >&2; exit 1; }
}

echo "campaign-smoke: building vsvcampaign and experiments"
$GO build -o "$workdir/vsvcampaign" ./cmd/vsvcampaign
$GO build -o "$workdir/experiments" ./cmd/experiments

echo "campaign-smoke: sequential reference ($EXP)"
"$workdir/experiments" -exp "$EXP" -warmup "$WARMUP" -instructions "$INSTRUCTIONS" \
	>"$workdir/seq.txt" 2>/dev/null

echo "campaign-smoke: checkpoint drill (crash experiments -checkpoint mid-append, then -resume)"
status=0
VSV_FAILPOINTS=ledger.append=crash@9 "$workdir/experiments" -exp "$EXP" \
	-warmup "$WARMUP" -instructions "$INSTRUCTIONS" -checkpoint "$workdir/ckpt.jsonl" \
	>/dev/null 2>"$workdir/ckpt-crash.log" || status=$?
if [ "$status" -ne 17 ]; then
	echo "FAIL: checkpointed run exited $status, want the injected crash (17)" >&2
	cat "$workdir/ckpt-crash.log" >&2
	exit 1
fi
"$workdir/experiments" -exp "$EXP" -warmup "$WARMUP" -instructions "$INSTRUCTIONS" \
	-checkpoint "$workdir/ckpt.jsonl" -resume >"$workdir/resumed.txt" 2>"$workdir/resume.log"
grep -q "^resuming: " "$workdir/resume.log" || {
	echo "FAIL: -resume loaded nothing from the crashed run's checkpoint" >&2
	cat "$workdir/resume.log" >&2
	exit 1
}
if ! cmp -s "$workdir/seq.txt" "$workdir/resumed.txt"; then
	echo "FAIL: resumed output differs from the sequential run" >&2
	diff "$workdir/seq.txt" "$workdir/resumed.txt" >&2 || true
	exit 1
fi

echo "campaign-smoke: $PROCS-process campaign"
"$workdir/vsvcampaign" -exp "$EXP" -procs "$PROCS" \
	-warmup "$WARMUP" -instructions "$INSTRUCTIONS" \
	-ledger "$workdir/ledger.jsonl" \
	>"$workdir/multi.txt" 2>"$workdir/multi.log"

if ! cmp -s "$workdir/seq.txt" "$workdir/multi.txt"; then
	echo "FAIL: $PROCS-process output differs from the sequential run" >&2
	diff "$workdir/seq.txt" "$workdir/multi.txt" >&2 || true
	exit 1
fi

echo "campaign-smoke: chaos drill (kill worker 1 mid-campaign)"
"$workdir/vsvcampaign" -exp "$EXP" -procs "$PROCS" \
	-warmup "$WARMUP" -instructions "$INSTRUCTIONS" \
	-ledger "$workdir/chaos-ledger.jsonl" \
	-chaos-kill-worker 1 -chaos-kill-after 3 -claim-ttl 2s \
	>"$workdir/chaos.txt" 2>"$workdir/chaos.log"

grep -q "chaos kill" "$workdir/chaos.log" || {
	echo "FAIL: chaos worker never reported its kill" >&2
	cat "$workdir/chaos.log" >&2
	exit 1
}
if ! cmp -s "$workdir/seq.txt" "$workdir/chaos.txt"; then
	echo "FAIL: post-crash output differs from the sequential run" >&2
	diff "$workdir/seq.txt" "$workdir/chaos.txt" >&2 || true
	exit 1
fi

echo "campaign-smoke: crash-recovery drill (kill -9 vsvserve mid-job, restart on the journal)"
$GO build -o "$workdir/vsvserve" ./cmd/vsvserve

start_server "$workdir/serve1.log"
id=$($CURL -X POST "$base/v1/jobs" -d "{
	\"v\": 1,
	\"artefacts\": [\"$EXP\"],
	\"warmup_instructions\": $WARMUP,
	\"measure_instructions\": $INSTRUCTIONS
}" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "FAIL: submission returned no job id" >&2; exit 1; }

# Kill the moment the job is running: no graceful shutdown, no flush —
# only the fsynced submit record survives.
for _ in $(seq 1 100); do
	state=$($CURL "$base/v1/jobs/$id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
	[ "$state" = "running" ] && break
	sleep 0.05
done
kill -9 "$serverpid"
wait "$serverpid" 2>/dev/null || true
serverpid=""
echo "campaign-smoke: killed vsvserve (-9) while $id was $state"

start_server "$workdir/serve2.log"
grep -q "journal replay" "$workdir/serve2.log" || {
	echo "FAIL: restarted server did not replay the journal" >&2
	cat "$workdir/serve2.log" >&2
	exit 1
}

# The same job id resumes without resubmission and runs to completion.
state=""
for _ in $(seq 1 300); do
	state=$($CURL "$base/v1/jobs/$id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -1)
	case "$state" in
	done) break ;;
	failed | cancelled)
		echo "FAIL: recovered job ended $state" >&2
		$CURL "$base/v1/jobs/$id" >&2
		exit 1
		;;
	esac
	sleep 0.2
done
[ "$state" = "done" ] || { echo "FAIL: recovered job stuck in state '$state'" >&2; exit 1; }

$CURL "$base/v1/jobs/$id/events" | grep -q '"type":"resumed"' || {
	echo "FAIL: recovered job's event log lacks the resumed record" >&2
	$CURL "$base/v1/jobs/$id/events" >&2
	exit 1
}

$CURL "$base/v1/jobs/$id/artefacts?format=text" >"$workdir/recovered.txt"
if ! cmp -s "$workdir/seq.txt" "$workdir/recovered.txt"; then
	echo "FAIL: post-kill-9 recovered output differs from the sequential run" >&2
	diff "$workdir/seq.txt" "$workdir/recovered.txt" >&2 || true
	exit 1
fi
kill "$serverpid" 2>/dev/null || true
wait "$serverpid" 2>/dev/null || true
serverpid=""

echo "campaign-smoke: OK ($(wc -c <"$workdir/seq.txt") bytes byte-identical sequential, checkpoint resume, $PROCS-process, post-crash, and post-kill-9 recovery)"
