#!/usr/bin/env bash
# Count the heap allocations a command makes, measured from outside it.
#
# Builds a small malloc-counting LD_PRELOAD shim (scripts/alloc_count_shim.c)
# into the build tree on first use, runs the command with it preloaded, and
# prints the total over the command and every process it starts, after the
# command's own output:
#
#     allocations: 18734512
#
# The command's stdout passes through as it runs; its stderr is held until
# it exits and then replayed without the shim's per-process lines.  The
# exit status is the command's.
#
# Usage: scripts/count_allocs.sh [--build-dir DIR] CMD [ARGS...]
#
# Example, the end-to-end benchmark binary on one workload:
#   scripts/count_allocs.sh ./build-e2e/rtcm_e2e --workload=fig5-paper \
#       --seed=1 --seconds=1
#
# glibc only.  A sanitizer build intercepts malloc itself, so count in a
# plain (Release or RelWithDebInfo) build.
set -euo pipefail

usage() {
  echo "usage: $0 [--build-dir DIR] CMD [ARGS...]" >&2
}

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
case "${1:-}" in
  --build-dir) BUILD_DIR="$2"; shift 2 ;;
  --build-dir=*) BUILD_DIR="${1#*=}"; shift ;;
esac
if [[ $# -eq 0 ]]; then
  usage
  exit 2
fi

mkdir -p "$BUILD_DIR"
SHIM="$(cd "$BUILD_DIR" && pwd)/alloc_count_shim.so"
SRC="$ROOT/scripts/alloc_count_shim.c"
if [[ ! -f "$SHIM" || "$SRC" -nt "$SHIM" ]]; then
  # Built beside the target and renamed, so concurrent runs never load a
  # half-written library.
  tmp="$(mktemp "$SHIM.XXXXXX")"
  "${CC:-cc}" -O2 -shared -fPIC -o "$tmp" "$SRC"
  mv -f "$tmp" "$SHIM"
fi

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
status=0
LD_PRELOAD="$SHIM${LD_PRELOAD:+:$LD_PRELOAD}" "$@" 2>"$log" || status=$?
grep -v '^count_allocs: ' "$log" >&2 || true
awk '/^count_allocs: pid [0-9]+ allocations [0-9]+$/ { total += $5 }
     END { printf "allocations: %.0f\n", total }' "$log"
exit "$status"
