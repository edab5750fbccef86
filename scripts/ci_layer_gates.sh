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
set -euo pipefail

BUILD_DIR="build"
for arg in "$@"; do
  case "${arg}" in
    --*) echo "unknown flag ${arg}" >&2; exit 2 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done
CTEST=(ctest --test-dir "${BUILD_DIR}" --output-on-failure)

echo "::group::Test names (no raw parameter byte dumps)"
# A value-parameterized suite whose parameter type has no PrintTo gets
# ctest names built from gtest's byte dump of the parameter.  Those names
# are unreadable, and when the parameter holds a pointer they change with
# ASLR between discoveries, so tests silently come and go by name.
TEST_NAMES="$("${CTEST[@]}" -N)"
if grep 'byte object' <<<"${TEST_NAMES}"; then
  echo "ctest names above embed a raw parameter byte dump; give the" \
       "parameter struct a PrintTo" >&2
  exit 1
fi
echo "::endgroup::"

echo "::group::Reconfiguration layer (unit label + property tests)"
"${CTEST[@]}" -L reconfig
"${CTEST[@]}" -R ReconfigSafety
echo "::endgroup::"

echo "::group::Simulation-kernel layer (unit + alloc labels, determinism)"
"${CTEST[@]}" -L sim
"${CTEST[@]}" -R Determinism
echo "::endgroup::"

echo "::group::Deployment layer (typed ports, DAnCE launch, plan builder)"
"${CTEST[@]}" -L deploy
# assemble() against an XML-round-tripped plan launch: byte-identical
# rendered traces over all 15 combinations, DS mode and a drained plan.
"${CTEST[@]}" -R DanceEquivalence
echo "::endgroup::"

echo "::group::Scenario API layer (spec round trips, library, validation)"
"${CTEST[@]}" -L scenario
echo "::endgroup::"

echo "::group::Admission layer (exact ledger, incremental index, book, oracles)"
# The admission label: ledger and Equation (1) unit tests, the incremental
# AdmissionIndex, the book of record, its slab storage (SoaEquivalence:
# slot maps and the shadow-book churn) and the oracle differential binary.
"${CTEST[@]}" -L admission
"${CTEST[@]}" -R IncrementalAub
# Test-only differential harnesses: every library grid stepped with the
# incremental index held to the full Equation (1) rescan, and the
# struct-of-arrays book held to a map-backed shadow.
"${CTEST[@]}" -R OracleDifferential
echo "::endgroup::"

echo "::group::Event routing layer (keyed router vs predicate reference)"
# Shadows every push of the Figure-5 grid, the huge topology and a
# reconfiguration storm with the pre-key predicate router.
"${CTEST[@]}" -R RoutingEquivalence
echo "::endgroup::"

echo "::group::Scenario spec exemplars (scenarios/*.json smoke)"
"${CTEST[@]}" -R SpecSmoke
echo "::endgroup::"

echo "::group::Static-analysis layer (rtcm-lint over src/ + fixture corpus)"
"${CTEST[@]}" -R RtcmLint
echo "::endgroup::"
