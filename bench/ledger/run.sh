#!/usr/bin/env bash
# Builds the ledger (Release, in build-ledger/ at the repository root) and
# runs it.
#
#   bench/ledger/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       One workload; the last line of output is its JSON result.
#   bench/ledger/run.sh [--seed S] [--seconds T] [--smoke] [--record FILE]
#       Every workload with its traced jobs, printing one
#       "workload metric value unit" line per metric and appending each
#       run's metrics to FILE (default build-ledger/results.jsonl).
#
# Exits non-zero when the build, a correctness gate or a run fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "error: $here is not inside the perturb source tree" >&2
  exit 2
fi
cd "$root"

build=build-ledger
# Compiler scratch files stay inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$root/$build/tmp"
jobs="$(nproc 2>/dev/null || echo 1)"
(( jobs > 4 )) && jobs=4
log="$build/build.log"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S bench/ledger -B "$build" -DCMAKE_BUILD_TYPE=Release \
         >"$log" 2>&1; } ||
   ! cmake --build "$build" --target ledger -j "$jobs" >>"$log" 2>&1; then
  echo "error: building the ledger failed (log: $log)" >&2
  tail -n 40 "$log" >&2
  exit 3
fi
ledger="$build/ledger"

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$ledger" "$@"
  fi
done

seed=7
seconds=10
smoke=()
record="$build/results.jsonl"
while (( $# > 0 )); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); seconds=0.5; shift ;;
    --record) record="$2"; shift 2 ;;
    *) echo "error: unknown argument $1" >&2; exit 2 ;;
  esac
done
for workload in lfk3-offline contention-offline pareto-stream \
                experiments-grid daemon-mixed; do
  "$ledger" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace 1 --record "$record" "${smoke[@]}" | grep -v '^{"correct"'
done
echo "results appended to $record" >&2
