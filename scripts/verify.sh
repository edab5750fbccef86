#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (library with -Werror),
# and run the full ctest suite.  This is the gate every change must pass.
#
# Usage: scripts/verify.sh [build-dir] [--lint]
#   --lint   additionally run the static-analysis layer: rtcm-lint over
#            src/ and tests/reference/ plus its fixture self-test, and
#            clang-tidy over every
#            library TU (skipped with a note when no clang-tidy binary is
#            installed — CI runs it with --require so the gate holds there)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="build"
LINT=0
for arg in "$@"; do
  case "${arg}" in
    --lint) LINT=1 ;;
    --*) echo "unknown flag ${arg}" >&2; exit 2 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure (${BUILD_DIR}, -Werror on rtcm) =="
CMAKE_ARGS=(-DRTCM_WERROR=ON)
if [[ "${LINT}" == 1 ]]; then
  CMAKE_ARGS+=(-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
fi
cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"

echo "== build (all test / bench / example targets) =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

if [[ "${LINT}" == 1 ]]; then
  echo "== rtcm-lint (src/ + tests/reference/ + fixture self-test) =="
  python3 scripts/rtcm_lint.py --verbose src tests/reference
  python3 scripts/rtcm_lint.py --self-test tests/data/lint
  echo "== clang-tidy =="
  scripts/run_clang_tidy.sh "${BUILD_DIR}"
fi

echo "== OK =="
