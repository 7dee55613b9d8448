#!/usr/bin/env bash
# Smoke gates over the built binaries, one feature area per run:
#
#   dune build && bash bench/smoke.sh <area>
#
# where <area> is one of: resilience fuzz symbolic race serve estimate.
# Run from anywhere inside the repository; exits 0 when every gate of the
# area holds, non-zero on the first that does not, and 2 on an unknown
# area. The unit suites are not re-run here: `dune runtest` runs all of
# them. The wall-clock envelopes (`timeout N`) are part of each gate: a
# regression that makes cancellation, draining or a campaign stop
# finishing fails the area instead of wedging it.
#
# Only `set -e`, no pipefail: several gates pipe a producer into
# `grep -q`, which may end the producer with SIGPIPE.
set -e

areas="resilience fuzz symbolic race serve estimate"

usage() {
  echo "usage: bash bench/smoke.sh <area>   (area: ${areas// /, })" >&2
  exit 2
}

[ $# -eq 1 ] || usage
area=$1
case " $areas " in
  *" $area "*) ;;
  *) usage ;;
esac

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
# stop any server a failed step left behind, keeping the exit status
cleanup() {
  local code=$? pids
  pids=$(jobs -p)
  [ -z "$pids" ] || kill $pids 2>/dev/null || true
  rm -rf "$tmp"
  exit $code
}
trap cleanup EXIT

step() { printf '\n== %s: %s\n' "$area" "$1"; }

# wait_ready PORT: poll the server on PORT with a trivial query until it
# answers, inside a 60 s envelope; the step fails if it never does. It
# runs the built client directly: a `dune exec` started while the
# server's own `dune exec` is still starting can hang for good.
wait_ready() {
  local deadline=$((SECONDS + 60))
  until _build/default/bin/permcli.exe --connect "127.0.0.1:$1" \
      -e "SELECT 1" > /dev/null 2>&1; do
    if [ $SECONDS -ge $deadline ]; then
      echo "server on port $1 did not answer within 60 s"; exit 1
    fi
    sleep 0.2
  done
}

# logged FILE CMD...: run CMD with its stdout in FILE, print FILE either
# way, and keep CMD's exit status for `set -e`
logged() {
  local out=$1 code=0
  shift
  "$@" > "$out" || code=$?
  cat "$out"
  return $code
}

# The governor must make every failure mode graceful: the bench under a
# short execution budget (censored cells, not hangs), a REPL that
# survives a statement from every error class, and a budget trip that
# names the operator by the path \explain gives it.
resilience() {
  step "bench under a short execution budget"
  timeout 300 dune exec bench/main.exe -- fig7 \
    --sizes 100,1000 --instances 1 --timeout 2 --json "$tmp/bench_to.json"
  timeout 300 dune exec bench/main.exe -- governor \
    --sf 0.05 --instances 1 --json "$tmp/bench_gov.json"
  grep -q '"status": "timeout"' "$tmp/bench_gov.json"

  step "REPL survives every error class"
  printf '%s\n' \
    "select from where;" \
    "select * from no_such_table;" \
    "select no_such_column from r;" \
    "select a + 'x' from r;" \
    "\\budget rows=5" \
    "select provenance * from r where a = any (select c from s);" \
    "\\budget off" \
    "select a from r order by a;" \
    "\\q" \
    | timeout 120 dune exec bin/permcli.exe -- --demo \
      > "$tmp/repl_smoke.out" 2>&1
  grep -q "error: \[parse\]" "$tmp/repl_smoke.out"
  grep -q "error: \[analyze\]" "$tmp/repl_smoke.out"
  grep -q "error: \[typecheck\]" "$tmp/repl_smoke.out"
  grep -q "error: \[eval\] budget exceeded" "$tmp/repl_smoke.out"
  # the session must still answer after all of the above: the last
  # answer or error it prints is the final statement's 3 rows
  grep -E 'row\(s\)|error' "$tmp/repl_smoke.out" | tail -n 1 \
    | grep -qxF '(3 row(s))'

  step "a budget trip names an operator of the plan"
  q="SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)"
  code=0
  timeout 60 dune exec bin/permcli.exe -- --demo --strategy gen \
    --max-rows 2 -e "$q" > "$tmp/trip.out" 2>&1 || code=$?
  cat "$tmp/trip.out"
  [ "$code" -eq 1 ]
  path=$(sed -n 's/^error: \[eval\] budget exceeded at \([^:]*\): .*/\1/p' \
    "$tmp/trip.out")
  [ -n "$path" ]
  # the tripped operator's path, verbatim, is one \explain reports
  timeout 60 dune exec bin/permcli.exe -- --demo --strategy gen \
    --explain-json "$q" > "$tmp/trip_explain.json"
  grep -qF "\"path\":\"$path\"" "$tmp/trip_explain.json"
}

# A pinned-seed differential campaign (4 strategies x 2 engines x
# oracle, counterexamples shrunk and bundled) and a certified
# provenance statement under a budget. The certified workload run is in
# the symbolic area.
fuzz() {
  step "pinned-seed differential campaign"
  timeout 300 dune exec bench/main.exe -- fuzz \
    --seed 42 --count 500 --artifacts _build/fuzz

  # Every plan of Qgen seeds 1-300, the TPC-H sublink queries and
  # synthetic q1/q2, run with no budget and under a 20-row ceiling: the
  # plans, answers (row order included), counters and trips must stay
  # those pinned here. A change that means to alter one of them updates
  # the pin and says why.
  step "plan, answer and counter digest"
  timeout 300 dune exec bench/main.exe -- digest --seeds 300 \
    > "$tmp/digest.txt"
  digest=$(md5sum < "$tmp/digest.txt" | cut -d' ' -f1)
  echo "digest of $(wc -l < "$tmp/digest.txt") runs: $digest"
  [ "$digest" = 2a95ec8bd255d18204f9c2a99086e63b ]

  step "certified provenance statement under a budget (permcli)"
  printf '%s\n' \
    "select provenance * from r where a = any (select c from s);" \
    "\\q" \
    | timeout 120 dune exec bin/permcli.exe -- --demo \
      --certify --timeout 10 > "$tmp/certify_smoke.out" 2>&1
  grep -q "certify: .* 0 failed" "$tmp/certify_smoke.out"
}

# The 3VL solver's proofs gate real rewrites: the certified optimizer
# runs over the workloads with no failed certificate and a majority of
# predicate obligations proved, the solver-backed lint rules answer
# through the JSON surface, and a fuzz campaign whose generator emits
# contradictory and range-shaped predicates exercises unsat-fold.
symbolic() {
  step "certified workloads discharge predicates symbolically"
  logged "$tmp/certify_sym.out" \
    timeout 600 dune exec bench/main.exe -- certify --sf 0.02
  # the aggregate proved rate over predicate obligations must stay
  # >= 30% (it is ~97% at the time of writing)
  rate=$(grep -o '([0-9.]*% of predicate obligations)' "$tmp/certify_sym.out" \
    | grep -o '[0-9]*' | head -1)
  test "$rate" -ge 30
  # the obligation counts are deterministic: a rewrite pass that loses
  # or duplicates trace entries (e.g. a shared sublink body's replay
  # under its copies' paths) changes them
  grep -q '^aggregate: 1149 obligations, 85 on predicates,' \
    "$tmp/certify_sym.out"

  step "solver-backed lint rules through the JSON surface"
  dune exec bin/permcli.exe -- --demo \
    --lint-json "SELECT a FROM r WHERE a < 1 AND a > 5" \
    | grep -q contradictory-condition
  dune exec bin/permcli.exe -- --demo \
    --lint-json "SELECT a FROM r WHERE a = NULL" \
    | grep -q condition-always-null

  step "pinned-seed fuzz campaign (range/contradiction shapes)"
  timeout 300 dune exec bench/main.exe -- fuzz \
    --seed 1009 --count 300 --artifacts _build/fuzz
}

# Shared state and governor cost: the static sharing lint comes back
# clean with warnings as errors and catches an unregistered toplevel
# mutable, and the governor's guarded slowdown stays under 3% per query.
race() {
  step "static sharing lint (warnings as errors)"
  timeout 120 dune exec bench/main.exe -- share-lint --werror
  dune exec bench/main.exe -- share-lint --lint-json | grep -q '"errors":0'

  step "unregistered shared mutable fails the lint"
  # on a copy of the engine sources, so the working tree is untouched
  mkdir "$tmp/relalg"
  cp lib/relalg/*.ml "$tmp/relalg"/
  dune exec bench/main.exe -- share-lint --root "$tmp/relalg"
  printf 'let sneaky_global = ref 0\nlet () = incr sneaky_global\n' \
    >> "$tmp/relalg/vexec.ml"
  if dune exec bench/main.exe -- share-lint --root "$tmp/relalg" \
      > "$tmp/share_probe.out"; then
    echo "share-lint missed an unregistered mutable"; exit 1
  elif [ $? -ne 1 ]; then
    echo "share-lint crashed on the probe"; exit 1
  fi
  grep -q share-undeclared-mutable "$tmp/share_probe.out"

  step "governor overhead under 3% on the governor benchmark"
  logged "$tmp/race_gov.out" \
    timeout 600 dune exec bench/main.exe -- governor \
    --sf 0.02 --instances 2 --json "$tmp/race_gov.json"
  # the table has exactly the cells Q11, Q15 and Q16, each < 3%
  test "$(grep '[+-][0-9][0-9]*\.[0-9]%' "$tmp/race_gov.out" \
    | awk '{ printf "%s ", $1 }')" = "Q11 Q15 Q16 "
  grep -o '[+-][0-9][0-9]*\.[0-9]%' "$tmp/race_gov.out" \
    | tr -d '+%' \
    | awk 'BEGIN { bad = 0 } { if ($1 >= 3.0) bad = 1 } END { exit bad || NR != 3 }'
}

# Provenance server: a scripted client session (happy path, a raw
# malformed frame the server answers typed and survives, a typed query
# failure), a budget-tripped request that fails typed or degrades —
# never 70, never a hang — graceful drain on SIGTERM inside an
# envelope, an answer over the frame limit refused with a typed error,
# pinned-seed protocol fuzzing, a pinned-seed fault-injected
# load run asserting the full matrix (no wedge, no leaked sessions, no
# wrong answers), and the serve-wide workload's answer check.
serve() {
  step "scripted client session"
  dune exec bin/permserver.exe -- --demo --port 7654 &
  SRV=$!
  wait_ready 7654
  # happy path: provenance rows over the wire, exit 0
  dune exec bin/permcli.exe -- --connect 127.0.0.1:7654 \
    -e "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)" \
    | grep -q prov_r_a
  # typed query failure: exit 1, not a crash
  if dune exec bin/permcli.exe -- \
       --connect 127.0.0.1:7654 -e "SELECT * FROM nosuch"; then
    echo "expected exit 1"; exit 1
  elif [ $? -ne 1 ]; then
    echo "wrong exit code for typed failure"; exit 1
  fi
  # a raw malformed frame (unknown tag 0x37) must not kill the server:
  # the next well-formed session still answers with all of demo r
  printf '\x00\x00\x00\x02\x01\x37' > "$tmp/bad_frame"
  exec 3<>/dev/tcp/127.0.0.1/7654
  cat "$tmp/bad_frame" >&3
  exec 3>&-
  sleep 1
  dune exec bin/permcli.exe -- --connect 127.0.0.1:7654 \
    -e "SELECT a FROM r" | grep -qF "(3 rows)"
  kill -TERM $SRV; wait $SRV

  step "budget-tripped request fails typed (exit 1, no hang)"
  # Gen must overrun its rung's 50 ms floor by a wide margin: at sf 0.05
  # it takes ~0.8 s on a 2-vCPU VM (at sf 0.02, ~0.05 s, which tripped
  # only sometimes).
  dune exec bin/permserver.exe -- \
    --tpch 0.05 --port 7655 --timeout 0.08 &
  SRV=$!
  wait_ready 7655
  set +e
  timeout 60 dune exec bin/permcli.exe -- \
    --connect 127.0.0.1:7655 \
    -e "SELECT PROVENANCE * FROM orders WHERE o_orderkey = ANY (SELECT l_orderkey FROM lineitem)" \
    > "$tmp/budget.out" 2>&1
  CODE=$?
  set -e
  cat "$tmp/budget.out"
  # either the ladder degraded and delivered (fallback line) or every
  # rung tripped typed (exit 1) — a hang or 70 fails
  if [ $CODE -eq 0 ]; then grep -q "fallback:" "$tmp/budget.out"
  else
    test $CODE -eq 1
    grep -qi "budget\|fallback" "$tmp/budget.out"
  fi
  kill -TERM $SRV; wait $SRV

  step "graceful drain inside the wall-clock envelope"
  dune exec bin/permserver.exe -- \
    --demo --port 7656 --drain-deadline 2 > "$tmp/drain.out" &
  SRV=$!
  wait_ready 7656
  dune exec bin/permcli.exe -- --connect 127.0.0.1:7656 \
    -e "SELECT a FROM r" > /dev/null
  kill -TERM $SRV
  # drain must finish well under deadline + join slack
  for i in $(seq 1 100); do
    kill -0 $SRV 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 $SRV 2>/dev/null; then
    echo "drain exceeded the envelope"; kill -9 $SRV; exit 1
  fi
  wait $SRV
  grep -q "drain complete" "$tmp/drain.out"

  step "an answer over the frame limit gets a typed error (exit 1)"
  dune exec bin/permserver.exe -- --tpch 1 --port 7657 &
  SRV=$!
  wait_ready 7657
  # a Left provenance answer of 6 049 rows, about 2.8 MB framed
  code=0
  timeout 120 dune exec bin/permcli.exe -- --connect 127.0.0.1:7657 \
    --strategy left \
    -e "SELECT PROVENANCE * FROM lineitem WHERE l_orderkey = ANY (SELECT o_orderkey FROM orders)" \
    > "$tmp/oversized.out" 2>&1 || code=$?
  cat "$tmp/oversized.out"
  [ "$code" -eq 1 ]
  grep -q "^error: result of [0-9]* rows encodes to [0-9]* bytes, over the 1048576-byte frame limit$" \
    "$tmp/oversized.out"
  # the server still answers
  dune exec bin/permcli.exe -- --connect 127.0.0.1:7657 \
    -e "SELECT count(*) FROM region" | grep -qF "(1 rows)"
  kill -TERM $SRV; wait $SRV

  step "pinned-seed protocol fuzzing"
  timeout 300 dune exec bench/main.exe -- serve \
    --fuzz-proto 200 --seed 42 --sf 0.005 --json "$tmp/serve_fuzz.json"

  step "pinned-seed 30 s fault-injected load (full matrix)"
  timeout 600 dune exec bench/main.exe -- serve \
    --clients 8 --duration 30 --sf 0.005 --seed 42 --faults \
    --json "$tmp/serve_faults.json"

  # Every serve-wide answer over the wire: the 0.1-0.15 MiB provenance
  # replies the server renders and frames must equal the local rows, and
  # every frame must stay under the result cap and the frame limit. 15 s
  # so that a slow runner still collects the samples a run needs (with
  # too few it exits 3, no result line).
  step "wide answers over the wire (serve-wide)"
  bash bench/perf/run.sh --workload serve-wide \
    --seed 1 --seconds 15 --trace 0 | tail -n 1 > "$tmp/serve_wide.json"
  cat "$tmp/serve_wide.json"
  grep -q '"correct": true' "$tmp/serve_wide.json"
  grep -q '"failed": 0,' "$tmp/serve_wide.json"
}

# Cardinality/cost estimation: the estimate bench asserts its three
# headline claims end to end (cost-mode regret vs the measured oracle,
# the censored governor cell flagged by estimate-cross-blowup before
# execution, every cost-based join reorder discharged under Certify)
# and pins the estimator's work on a fixed corpus,
# then the explain surface and the advisor through the CLI.
estimate() {
  step "estimate bench (regret, blowup prediction, certified reorder)"
  logged "$tmp/bench_est.out" \
    timeout 600 dune exec bench/main.exe -- estimate \
    --sf 0.05 --json "$tmp/bench_est.json"
  grep -q "fires before execution" "$tmp/bench_est.out"
  grep -q "0 failure(s)" "$tmp/bench_est.out"
  grep -q '"figure": "estimate"' "$tmp/bench_est.json"
  # the estimator's transfers and the solver's questions and fuel while
  # the optimizer plans a fixed Qgen corpus are deterministic: a change
  # that estimates the same subplans again (a memo that stops reusing
  # facts), asks more predicate questions or burns more fuel raises them
  grep -q '^estimate transfers: 8124 over 698 optimized plans' \
    "$tmp/bench_est.out"
  grep -q '^solver questions: 21674 (fuel 211042) over 698 optimized plans' \
    "$tmp/bench_est.out"

  step "explain surface (per-operator estimates over JSON)"
  dune exec bin/permcli.exe -- --demo \
    --explain-json "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)" \
    > "$tmp/explain.json"
  grep -q '"est_rows"' "$tmp/explain.json"
  grep -q '"est_cost"' "$tmp/explain.json"
  grep -q '"actual_rows"' "$tmp/explain.json"

  step "the advisor answers through the CLI"
  dune exec bin/permcli.exe -- --demo --strategy auto \
    -e "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)" \
    | grep -q prov_r_a
}

"$area"
echo "smoke $area: ok"
