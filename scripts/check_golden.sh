#!/bin/sh
# check_golden.sh — golden-output regression gate.
#
# Runs the short-mode experiment suite (every table and figure at reduced
# scale) and compares the SHA-256 of its stdout against the committed
# digest — twice: once with the event-driven fast-forward enabled (the
# default) and once with -slowtick forcing one tick() per cycle. Both runs
# must match the same committed hash, which is the proof that the
# fast-forward path is bit-identical physics, not an approximation.
#
# The simulator is deterministic, so any digest drift means a behavior
# change: performance work must keep this green, and intentional physics
# changes must update testdata/golden_short.sha256 and the text it hashes,
# testdata/golden_short.txt, in the same commit with an explanation. On
# drift the gate prints a diff against that text, so a failure shows which
# numbers moved.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
GOLDEN_FILE=testdata/golden_short.sha256
GOLDEN_TEXT=testdata/golden_short.txt

want=$(cat "$GOLDEN_FILE")
if [ "$(sha256sum <"$GOLDEN_TEXT" | cut -d' ' -f1)" != "$want" ]; then
	echo "FAIL: $GOLDEN_TEXT does not hash to $GOLDEN_FILE; update them together" >&2
	exit 1
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT INT TERM

check() {
	label=$1
	shift
	$GO run ./cmd/experiments -exp all -warmup 5000 -instructions 20000 -parallel 4 "$@" >"$out"
	got=$(sha256sum <"$out" | cut -d' ' -f1)
	if [ "$got" != "$want" ]; then
		echo "FAIL: short-mode experiment output drifted ($label)" >&2
		echo "  want $want" >&2
		echo "  got  $got" >&2
		diff "$GOLDEN_TEXT" "$out" >&2 || true
		echo "If the change is intentional, update $GOLDEN_FILE and $GOLDEN_TEXT." >&2
		exit 1
	fi
	echo "golden output OK, $label ($got)"
}

check "fast-forward"
check "slow-tick" -slowtick
