#!/usr/bin/env bash
# End-to-end smoke for the tabulard server (PR 6, CI job):
#
#   1. Run the Fig-1 restructuring example through the single-shot
#      interpreter (tabular_shell) to produce the golden database.
#   2. Start tabulard on a unix socket, run the same program through
#      tabular_cli, dump the committed result.
#   3. Byte-compare server result against the golden.
#   4. SIGTERM the daemon and assert it drains and exits 0.
#   5. Restart with admission control (TABULAR_ADMIT_MAX_ROWS): the same
#      restructuring program — statically unbounded through MERGE — must
#      now be refused before execution, while a bounded program still runs.
#   6. A malformed admission limit, numeric flag or TABULAR_THREADS is
#      refused at startup, naming the flag or variable.
#
# Usage: scripts/server_smoke.sh <build-dir>

set -u

BUILD_DIR="${1:?usage: server_smoke.sh <build-dir>}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
SHELL_BIN="$BUILD_DIR/examples/tabular_shell"
DAEMON_BIN="$BUILD_DIR/tools/tabulard"
CLI_BIN="$BUILD_DIR/tools/tabular_cli"
DB="$REPO_DIR/examples/sales.tdb"
PROGRAM="$REPO_DIR/examples/sales_restructuring.ta"

WORK="$(mktemp -d)"
SOCK="$WORK/tabulard.sock"
DAEMON_PID=""

fail() {
  echo "server_smoke: FAIL: $*" >&2
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
  exit 1
}

for bin in "$SHELL_BIN" "$DAEMON_BIN" "$CLI_BIN"; do
  [ -x "$bin" ] || fail "missing binary: $bin"
done

# 1. The single-shot golden.
"$SHELL_BIN" "$DB" "$PROGRAM" "$WORK/golden.tdb" \
  || fail "tabular_shell failed on $PROGRAM"

# 2. The server path.
"$DAEMON_BIN" --db "$DB" --unix "$SOCK" --quiet &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  if "$CLI_BIN" --unix "$SOCK" ping >/dev/null 2>&1; then
    break
  fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "tabulard died during startup"
  sleep 0.1
done
"$CLI_BIN" --unix "$SOCK" ping >/dev/null || fail "tabulard never answered ping"

"$CLI_BIN" --unix "$SOCK" run "$PROGRAM" || fail "tabular_cli run failed"
"$CLI_BIN" --unix "$SOCK" dump > "$WORK/server.tdb" \
  || fail "tabular_cli dump failed"

# 3. Byte identity between the server-committed database and the golden.
cmp "$WORK/golden.tdb" "$WORK/server.tdb" \
  || fail "server result differs from the single-shot interpreter golden"

# A second session still sees the committed version.
"$CLI_BIN" --unix "$SOCK" tables | grep -q "Sales" \
  || fail "committed tables not visible to a fresh session"

# 4. Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$DAEMON_PID"
WAIT_STATUS=0
wait "$DAEMON_PID" || WAIT_STATUS=$?
[ "$WAIT_STATUS" -eq 0 ] || fail "tabulard exited $WAIT_STATUS on SIGTERM"
[ ! -e "$SOCK" ] || fail "tabulard left its unix socket behind"
DAEMON_PID=""

# 5. Admission control: under a row budget (seeded from the environment,
# the deployment path), the statically-unbounded restructuring program is
# rejected before execution; a bounded program on the same daemon runs.
SOCK2="$WORK/tabulard-admit.sock"
TABULAR_ADMIT_MAX_ROWS=1000000 \
  "$DAEMON_BIN" --db "$DB" --unix "$SOCK2" --quiet &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  if "$CLI_BIN" --unix "$SOCK2" ping >/dev/null 2>&1; then
    break
  fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "admission tabulard died during startup"
  sleep 0.1
done

ADMIT_ERR="$WORK/admit.err"
if "$CLI_BIN" --unix "$SOCK2" run "$PROGRAM" 2> "$ADMIT_ERR"; then
  fail "admission-controlled tabulard executed a statically-unbounded program"
fi
grep -q "AdmissionRejected" "$ADMIT_ERR" \
  || fail "rejection did not carry AdmissionRejected: $(cat "$ADMIT_ERR")"
grep -q "statically unbounded" "$ADMIT_ERR" \
  || fail "rejection did not name the unbounded verdict: $(cat "$ADMIT_ERR")"

"$CLI_BIN" --unix "$SOCK2" run "$REPO_DIR/examples/fig1.ta" \
  || fail "admission-controlled tabulard refused a bounded program"

kill -TERM "$DAEMON_PID"
WAIT_STATUS=0
wait "$DAEMON_PID" || WAIT_STATUS=$?
[ "$WAIT_STATUS" -eq 0 ] || fail "admission tabulard exited $WAIT_STATUS on SIGTERM"
DAEMON_PID=""

# 6. A misconfigured admission limit fails loudly instead of silently
# disabling the safety rail (strtoull of garbage would yield 0 = off).
if TABULAR_ADMIT_MAX_ROWS=notanumber \
    "$DAEMON_BIN" --db "$DB" --unix "$WORK/bad.sock" --quiet 2> "$WORK/bad.err"; then
  fail "tabulard started with TABULAR_ADMIT_MAX_ROWS=notanumber"
fi
grep -q "TABULAR_ADMIT_MAX_ROWS" "$WORK/bad.err" \
  || fail "bad admission limit did not name the variable: $(cat "$WORK/bad.err")"
if "$DAEMON_BIN" --db "$DB" --unix "$WORK/bad.sock" --quiet \
    --max-est-rows 10x 2> "$WORK/bad2.err"; then
  fail "tabulard started with --max-est-rows 10x"
fi
grep -q "max-est-rows" "$WORK/bad2.err" \
  || fail "bad --max-est-rows did not name the flag: $(cat "$WORK/bad2.err")"
# The same holds for every numeric flag and variable. `timeout` keeps a
# regression (a daemon that accepts the value and serves) from hanging.
if timeout 10 "$DAEMON_BIN" --db "$DB" --unix "$WORK/bad.sock" --quiet \
    --metrics-port 70000 2> "$WORK/bad3.err"; then
  fail "tabulard started with --metrics-port 70000"
fi
grep -q "metrics-port" "$WORK/bad3.err" \
  || fail "bad --metrics-port did not name the flag: $(cat "$WORK/bad3.err")"
# A session limit of 0 would refuse every connection.
if timeout 10 "$DAEMON_BIN" --db "$DB" --unix "$WORK/bad.sock" --quiet \
    --max-sessions 0 2> "$WORK/bad5.err"; then
  fail "tabulard started with --max-sessions 0"
fi
grep -q "max-sessions" "$WORK/bad5.err" \
  || fail "bad --max-sessions did not name the flag: $(cat "$WORK/bad5.err")"
if TABULAR_THREADS=4x timeout 10 \
    "$DAEMON_BIN" --db "$DB" --unix "$WORK/bad.sock" --quiet 2> "$WORK/bad4.err"; then
  fail "tabulard started with TABULAR_THREADS=4x"
fi
grep -q "TABULAR_THREADS" "$WORK/bad4.err" \
  || fail "bad TABULAR_THREADS did not name the variable: $(cat "$WORK/bad4.err")"

rm -rf "$WORK"
echo "server_smoke: OK: server output byte-identical to single-shot golden," \
     "graceful shutdown exited 0, admission rejected the unbounded program," \
     "malformed limits, flags and variables refused at startup"
