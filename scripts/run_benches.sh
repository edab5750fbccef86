#!/usr/bin/env bash
# Run every benchmark the build tree's CMake configuration defines and
# collect their machine-readable reports (BENCH_<name>.json) into a report
# directory.  The benches to run are read from BUILD_DIR/bench_targets.txt,
# which CMake writes at configure time: a binary a deleted bench left in an
# old tree is not listed and never runs, and a tree without the list (not
# configured, or configured without benches) is refused.
# Pass-through arguments go to each sweep bench, e.g.
# `scripts/run_benches.sh --seeds=3` for a quick pass.
#
# A bench fails the whole script (after running the rest) when it exits
# nonzero OR when it produced no report file — a binary that dies after
# flag parsing must never leave a silent gap in the collected set.
#
# The scenario-grid bench (bench_scenario_grids) runs once per named grid
# from the scenario registry; --grids overrides the default comma-separated
# list of registry entries (those without a dedicated figure bench).
#
# --profile=nightly expands to the paper-scale run parameters the nightly
# CI baseline uses (seeds=10, horizon 100 s); explicit pass-through flags
# still win because the bench flag parser keeps the last occurrence.
#
# Usage: scripts/run_benches.sh [--build-dir DIR] [--report-dir DIR]
#                               [--grids a,b,c] [--profile nightly]
#                               [bench args...]
#
# The script's own options are recognized in any position, before or after
# bench args; everything else passes through to the benches.
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="build"
REPORT_DIR="bench_reports"
SCENARIO_GRIDS="bursty,jittered,imbalanced-heavy,drain-storm,long-horizon,huge-topology"
PROFILE=""
BENCH_ARGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --build-dir=*) BUILD_DIR="${1#*=}"; shift ;;
    --report-dir) REPORT_DIR="$2"; shift 2 ;;
    --report-dir=*) REPORT_DIR="${1#*=}"; shift ;;
    --grids) SCENARIO_GRIDS="$2"; shift 2 ;;
    --grids=*) SCENARIO_GRIDS="${1#*=}"; shift ;;
    --profile) PROFILE="$2"; shift 2 ;;
    --profile=*) PROFILE="${1#*=}"; shift ;;
    *) BENCH_ARGS+=("$1"); shift ;;
  esac
done

PROFILE_ARGS=()
case "${PROFILE}" in
  "") ;;
  # Paper scale: what the nightly baseline workflow runs and what the
  # cross-PR regression gate compares against.
  nightly) PROFILE_ARGS+=(--seeds=10 --horizon_s=100) ;;
  # The cheap per-PR smoke pass.
  smoke) PROFILE_ARGS+=(--seeds=2 --horizon_s=20) ;;
  *) echo "unknown profile '${PROFILE}' (expected nightly or smoke)" >&2
     exit 2 ;;
esac

GRID_ARGS=("${PROFILE_ARGS[@]}" "${BENCH_ARGS[@]}")

if [[ ! -d "${BUILD_DIR}" ]]; then
  echo "build tree '${BUILD_DIR}' not found; run scripts/verify.sh first" >&2
  exit 1
fi
BENCH_LIST="${BUILD_DIR}/bench_targets.txt"
if [[ ! -f "${BENCH_LIST}" ]]; then
  echo "${BENCH_LIST} not found: configure '${BUILD_DIR}' with CMake" \
       "(benches enabled) so it lists the bench targets to run" >&2
  exit 1
fi
mapfile -t BENCH_TARGETS < "${BENCH_LIST}"
mkdir -p "${REPORT_DIR}"
# Drop stale reports (renamed/removed benches) so the collected set always
# reflects this run.
rm -f "${REPORT_DIR}"/BENCH_*.json

FAILED=()
# Record a failure for a bench that exited zero but left no report behind
# (e.g. crashed between flag parsing and the report write in a way the
# shell missed, or wrote to the wrong path).
check_report() { # <bench label> <status> <report path>
  if [[ "$2" -eq 0 && ! -s "$3" ]]; then
    echo "$1 exited 0 but wrote no report at $3" >&2
    return 1
  fi
  return "$2"
}

for target in "${BENCH_TARGETS[@]}"; do
  [[ -n "${target}" ]] || continue
  bench="${BUILD_DIR}/${target}"
  name="${target#bench_}"
  report="${REPORT_DIR}/BENCH_${name}.json"
  echo "== bench_${name} =="
  if [[ ! -x "${bench}" || -d "${bench}" ]]; then
    echo "bench_${name} is listed in ${BENCH_LIST} but not built" >&2
    FAILED+=("bench_${name}")
    echo
    continue
  fi
  case "${name}" in
    # The registry bench: one pass per named scenario grid, each with its
    # own report file.
    scenario_grids)
      status=0
      for grid in ${SCENARIO_GRIDS//,/ }; do
        echo "-- grid ${grid} --"
        grid_report="${REPORT_DIR}/BENCH_scenario_${grid}.json"
        "${bench}" "--grid=${grid}" \
          "--json_out=${grid_report}" "${GRID_ARGS[@]}"
        check_report "bench_${name} (grid ${grid})" $? "${grid_report}"
        grid_status=$?
        [[ ${grid_status} -ne 0 ]] && status=${grid_status}
        echo
      done
      ;;
    # Micro benches take their own sizing flags, not the sweep set; with
    # benches failing fast on unknown flags, they only get --json_out.
    sim_micro|fig8_overheads|admission_scale)
      "${bench}" "--json_out=${report}"
      check_report "bench_${name}" $? "${report}"
      status=$?
      ;;
    *)
      "${bench}" "--json_out=${report}" "${GRID_ARGS[@]}"
      check_report "bench_${name}" $? "${report}"
      status=$?
      ;;
  esac
  if [[ ${status} -ne 0 ]]; then
    echo "bench_${name} FAILED with exit code ${status}" >&2
    FAILED+=("bench_${name}")
  fi
  echo
done

echo "reports collected in ${REPORT_DIR}/:"
ls -1 "${REPORT_DIR}"/BENCH_*.json 2>/dev/null || echo "  (none)"

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAILED benches: ${FAILED[*]}" >&2
  exit 1
fi
