#!/usr/bin/env bash
# The per-layer CI gates, shared by every workflow job (plain and
# sanitized runs use the exact same sequence; the sanitizer env is the
# caller's job — see .github/actions/layer-gates).  Run locally as
# `scripts/ci_layer_gates.sh [BUILD_DIR]` for the same coverage CI gets.
#
# Each layer gets an explicit gate even though the full ctest pass already
# ran: the per-layer invocations keep CI logs attributable (a red
# "Simulation kernel" line names the broken layer) and guard the label
# wiring itself — a test that silently loses its label would otherwise
# drop out of the layer gate without anyone noticing.
#
# `--threads-only` restricts the run to the genuinely multi-threaded layers
# (thread pool, sweep engine, shard merge) — the selection the TSan lane
# uses, where re-running the single-threaded simulator suites would only
# burn the sanitizer's 5-15x slowdown without exercising any concurrency.
set -euo pipefail

BUILD_DIR="build"
THREADS_ONLY=0
for arg in "$@"; do
  case "${arg}" in
    --threads-only) THREADS_ONLY=1 ;;
    --*) echo "unknown flag ${arg}" >&2; exit 2 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done
CTEST=(ctest --test-dir "${BUILD_DIR}" --output-on-failure)

if [[ "${THREADS_ONLY}" == 1 ]]; then
  echo "::group::Multi-threaded layers (sweep engine, thread pool, sharding)"
  # ShardMergeFig5Binary runs four full fig5 shards plus the merge; at
  # TSan's slowdown it would dominate the lane for no extra thread
  # coverage beyond the sweep tests already selected — excluded here, and
  # still gated at full speed in every other job.
  "${CTEST[@]}" -R 'Sweep|Shard|ThreadPool' -E ShardMergeFig5Binary
  echo "::endgroup::"
  echo "::group::Simulation-kernel layer under TSan (both kernels)"
  "${CTEST[@]}" -L sim
  echo "::endgroup::"
  exit 0
fi

echo "::group::Reconfiguration layer (unit label + property tests)"
"${CTEST[@]}" -L reconfig
"${CTEST[@]}" -R ReconfigSafety
echo "::endgroup::"

echo "::group::Simulation-kernel layer (unit + alloc labels, determinism)"
# The sim label registers every test twice: once against the default
# timer-wheel kernel and once (".heap_kernel" suffix, RTCM_SIM_KERNEL=heap)
# against the 4-ary heap oracle, so this single invocation gates BOTH
# kernels — in the sanitizer job too.  Assert the double registration is
# actually wired before trusting the label run: a lost suffix would
# silently halve the coverage.
sim_listing="$(ctest --test-dir "${BUILD_DIR}" -N -L sim)"
if ! grep -q '\.heap_kernel' <<<"${sim_listing}"; then
  echo "sim label lost its .heap_kernel registrations" >&2
  exit 1
fi
"${CTEST[@]}" -L sim
"${CTEST[@]}" -R Determinism
echo "::endgroup::"

echo "::group::Scenario API layer (spec round trips, library, validation)"
"${CTEST[@]}" -L scenario
echo "::endgroup::"

echo "::group::Admission layer (incremental-index equivalence, oracle run)"
"${CTEST[@]}" -R IncrementalAub
# Both admission cross-checks armed at once: the reference Equation (1)
# rescan against the incremental index, and the map-backed shadow book
# against the struct-of-arrays slabs.  Either aborts the bench on
# divergence.
RTCM_CHECK_ADMISSION_ORACLE=1 RTCM_CHECK_BOOK_ORACLE=1 \
  "${BUILD_DIR}/bench_fig5_accept_ratio" --seeds=1 --horizon_s=10
echo "::endgroup::"

echo "::group::Event routing layer (keyed router vs predicate reference)"
# Shadows every push of the Figure-5 grid, the huge topology and a
# reconfiguration storm with the pre-key predicate router.
"${CTEST[@]}" -R RoutingEquivalence
echo "::endgroup::"

echo "::group::SoA storage layer (slab/arena/small-vec + shadow-book churn)"
"${CTEST[@]}" -R SoaEquivalence
echo "::endgroup::"

echo "::group::Sweep sharding layer (partition properties, merge identity)"
"${CTEST[@]}" -R Shard
echo "::endgroup::"

echo "::group::Scenario spec exemplars (scenarios/*.json smoke)"
"${CTEST[@]}" -R SpecSmoke
echo "::endgroup::"

echo "::group::Static-analysis layer (rtcm-lint over src/ + fixture corpus)"
"${CTEST[@]}" -R RtcmLint
echo "::endgroup::"
