#!/usr/bin/env bash
# Kill-and-resume smoke test: SIGKILL a checkpointed sweep mid-run, then
# resume it and require byte-identical convergence with a never-killed run.
#
# This is the external-violence counterpart of the in-process
# fault-injection suite (crates/lab/tests/fault_injection.rs): the process
# dies by real `kill -9`, not a simulated abort, so the whole
# atomic-write + journal protocol is exercised against a genuinely
# arbitrary crash point. One scenario is held open with an injected sleep
# so the kill is guaranteed to land mid-sweep, after at least two sibling
# units have journaled.
#
# Exit 0: resume converged (results byte-identical to the fault-free
# golden, journal strictly parseable, dashboard renders). Any other exit
# is a protocol violation.

set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/racer-lab
cargo build --release -q -p racer-lab

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "# fault-free golden run"
"$BIN" run --all --quick --quiet --out "$work/golden"

# Hold the last registry scenario open (10-minute injected sleep) so the
# sweep cannot finish before the kill arrives.
hold=$("$BIN" list --names-json | sed 's/.*"\([^"]*\)"\]$/\1/')
echo "# checkpointed run, holding scenario:${hold} open"
RACER_FAULT_PLAN="sleep@scenario:${hold}=600000" \
  "$BIN" run --all --quick --quiet --out "$work/out" --checkpoint "$work/ckpt" &
pid=$!

# SIGKILL as soon as at least two units are journaled.
journaled=0
for _ in $(seq 1 600); do
  journaled=$(find "$work/ckpt" -name '*.json' 2>/dev/null | wc -l)
  [ "$journaled" -ge 2 ] && break
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "error: run exited before the kill (journaled=$journaled)" >&2
    exit 1
  fi
  sleep 0.1
done
if [ "$journaled" -lt 2 ]; then
  echo "error: never saw 2 journaled units" >&2
  kill -9 "$pid" 2>/dev/null || true
  exit 1
fi
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
echo "# SIGKILLed the sweep after ${journaled} journaled unit(s)"

# Resume with no faults: journaled units replay byte-for-byte, the rest
# re-run. A corrupt journal record would abort this step with exit 8,
# so a successful resume doubles as the strict-parse check on the
# journal.
echo "# resuming"
"$BIN" run --all --quick --quiet --out "$work/out" --checkpoint "$work/ckpt"

echo "# verifying byte-identity with the golden run"
diff -r "$work/golden" "$work/out"

# The dashboard render strict-parses and envelope-validates every result
# file; rendering the resumed outputs proves none are corrupt.
"$BIN" report "$work/site" "$work/out" >/dev/null

echo "# kill-and-resume smoke: OK (${journaled} unit(s) survived the kill)"
