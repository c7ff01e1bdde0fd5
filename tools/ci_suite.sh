#!/usr/bin/env bash
# Builds and runs one CI suite, then gates or records its bench reports.
#
#   tools/ci_suite.sh <suite> [run|gate|record]
#
#   suite   chaos | overload | service | rebalance | sockets
#   run     (default) build the suite's targets, then run its tests and
#           benches, each under a 420 s hang watchdog
#   gate    compare the suite's BENCH_*.json reports against the median of
#           its last 5 recorded runs (tools/bench_compare.py)
#   record  append the suite's reports to its history
#
# Run from anywhere after configuring build/ (cmake -B build -S .). Each
# suite keeps its history in bench-history-<name>/ at the repo root; CI
# persists that directory in an actions/cache entry of the same name. An
# empty history passes the gate with a note.
set -euo pipefail

usage="usage: tools/ci_suite.sh <chaos|overload|service|rebalance|sockets> [run|gate|record]"
suite="${1:?$usage}"
phase="${2:-run}"
cd "$(dirname "$0")/.."

# Per suite: build targets, test/bench steps, reports, history name, and
# the noise threshold passed to bench_compare (empty = its 10% default).
# Exact invariant counters (hangs, wrong_winners, lost keys, ...) are gated
# with zero tolerance by bench_compare whatever the threshold.
threshold=()
case "$suite" in
  chaos)
    # Seeded fault schedules (drop / garble / delay / slow-drip / disk-full
    # / kill -9) against live clusters: every trial ends in a typed status
    # or a recovered cluster with a bit-identical winner, never a hang, and
    # no __2pc__ intent survives recovery.
    targets=(mlcask_server test_chaos bench_chaos_suite)
    reports=(BENCH_chaos_suite.json)
    history=chaos
    ;;
  overload)
    # Adversarial shapes driven open-loop at 1x/2x/4x measured capacity
    # under fault schedules: every request succeeds or fails typed within
    # deadline+epsilon, queues and RSS stay bounded, goodput at 4x holds
    # >= 70% of 1x.
    targets=(mlcask_server test_overload bench_overload_suite)
    reports=(BENCH_overload_suite.json)
    history=overload
    ;;
  service)
    # Merge as a service over real `mlcask_server --serve-merge` processes:
    # winners bit-identical to client-local Algorithm 2, pollers never
    # wedge, no tenant's share falls 25% below its DRR weight.
    targets=(mlcask_server test_service bench_saturation_suite
             example_merge_service_client)
    reports=(BENCH_saturation_suite.json)
    history=service
    ;;
  rebalance)
    # Live AddShard / RemoveShard: dual-epoch routing, kill -9 resume over
    # real server processes, merge bit-identity while the topology changes.
    targets=(mlcask_server test_rebalance bench_micro_rebalance)
    reports=(BENCH_micro_rebalance.json)
    history=rebalance
    threshold=(--threshold 0.10)
    ;;
  sockets)
    # Every shard a real mlcask_server process on a unix: endpoint: frame
    # codec robustness, the 4-shard UDS equivalence matrix, and the fig11
    # and transport benches with their own history (socket wall-clock must
    # not pollute the loopback baselines).
    targets=(mlcask_server test_socket_transport test_multiprocess_cluster
             test_transport test_wire_codec bench_fig11_distributed
             bench_micro_transport)
    reports=(BENCH_fig11_socket.json BENCH_micro_transport.json)
    history=socket
    threshold=(--threshold 0.10)
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
history_dir="bench-history-${history}"

# step <title> <dir> <command...>: runs one command in <dir> under the hang
# watchdog. On expiry it dumps the process tree (stuck mlcask_server shards
# show up as orphans) to <suite>-hang-pstree.txt at the repo root and fails.
step() {
  local title="$1" dir="$2"
  shift 2
  echo "::group::${title}"
  local rc=0
  (cd "$dir" && timeout -k 10 420 "$@") || rc=$?
  echo "::endgroup::"
  if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
    echo "::error::$(basename "$1") exceeded the hang watchdog (420s)"
    ps -ef --forest | tee "${suite}-hang-pstree.txt"
    exit 1
  fi
  if [ "$rc" -ne 0 ]; then exit "$rc"; fi
}

run_chaos() {
  step "Chaos tests (fault injection, redial replay, 2PC recovery)" \
    build ./test_chaos
  step "Chaos suite (seeded fault sweep + kill -9 recovery drill)" \
    . ./build/bench_chaos_suite --short --json BENCH_chaos_suite.json
}

run_overload() {
  step "Overload tests (deadline codec, budget shrink, admission, retry budget)" \
    build ./test_overload
  step "Saturation suite (adversarial shapes at 1x/2x/4x under faults)" \
    . ./build/bench_overload_suite --short --json BENCH_overload_suite.json
}

run_service() {
  step "Service tests (lifecycle, DRR fairness, tenant isolation, replay)" \
    build ./test_service
  step "Merge service quickstart example (real socket round trip)" \
    . ./build/example_merge_service_client
  step "Saturation suite (multi-tenant open loop at 1x/2x/4x capacity)" \
    . ./build/bench_saturation_suite --short \
    --json BENCH_saturation_suite.json
}

run_rebalance() {
  step "Migration drills (dual-epoch routing, kill -9 resume, merge bit-identity)" \
    build ./test_rebalance
  step "Rebalance bench (migration throughput + merge during rebalance)" \
    . ./build/bench_micro_rebalance --short --json BENCH_micro_rebalance.json
}

run_sockets() {
  step "Socket transport + frame robustness tests" \
    build ./test_socket_transport
  step "Loopback transport tests" build ./test_transport
  step "Wire codec tests (goldens, zero-copy)" build ./test_wire_codec
  step "Multi-process UDS cluster equivalence (real mlcask_server processes)" \
    build ./test_multiprocess_cluster
  step "Fig11 distributed bench — socket mode (4-shard UDS cluster)" \
    . ./build/bench_fig11_distributed --short --socket=1 \
    --json BENCH_fig11_socket.json
  step "Transport wire-speed micro-bench (codec + streaming gates)" \
    . ./build/bench_micro_transport --short --json BENCH_micro_transport.json
}

case "$phase" in
  run)
    echo "::group::Build (${targets[*]})"
    cmake --build build -j "$(nproc)" --target "${targets[@]}"
    echo "::endgroup::"
    "run_${suite}"
    ;;
  gate)
    for report in "${reports[@]}"; do
      python3 tools/bench_compare.py --current "$report" \
        --history-dir "$history_dir" --last 5 ${threshold[@]+"${threshold[@]}"}
    done
    ;;
  record)
    for report in "${reports[@]}"; do
      python3 tools/bench_compare.py --current "$report" \
        --history-dir "$history_dir" --append \
        --tag "${history}-${GITHUB_RUN_ID:-local}"
    done
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
