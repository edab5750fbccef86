#!/usr/bin/env bash
# Checks that scripts/run_benches.sh runs only the benches its build tree's
# bench_targets.txt lists.  Builds a scratch tree holding one listed fake
# bench and one unlisted bench_stale (a binary a deleted bench would leave
# behind), runs the script over it, and prints "run_benches_stale: ok" only
# if the listed bench ran, bench_stale did not, and a tree without the list
# is refused.
#
# Usage: tests/run_benches_stale.sh RUN_BENCHES_SH SCRATCH_DIR
set -uo pipefail

RUN_BENCHES="$1"
TREE="$2"
rm -rf "${TREE}"
mkdir -p "${TREE}/build" "${TREE}/reports"

cat > "${TREE}/build/bench_listed" <<'BENCH'
#!/usr/bin/env bash
for arg in "$@"; do
  case "${arg}" in --json_out=*) echo '{}' > "${arg#*=}" ;; esac
done
echo "listed bench ran"
BENCH
cat > "${TREE}/build/bench_stale" <<'BENCH'
#!/usr/bin/env bash
echo "STALE BENCH RAN"
exit 1
BENCH
chmod +x "${TREE}/build/bench_listed" "${TREE}/build/bench_stale"

fail() { echo "run_benches_stale: FAIL: $*"; exit 1; }

# A tree without the list is refused before anything runs.
out="$("${RUN_BENCHES}" --build-dir "${TREE}/build" \
        --report-dir "${TREE}/reports" 2>&1)"
status=$?
[[ ${status} -ne 0 ]] || fail "ran without bench_targets.txt"
grep -q "bench_targets.txt" <<<"${out}" || fail "no message naming the list"
grep -q "RAN" <<<"${out}" && fail "a bench ran without the list"

printf 'bench_listed\n' > "${TREE}/build/bench_targets.txt"
out="$("${RUN_BENCHES}" --build-dir "${TREE}/build" \
        --report-dir "${TREE}/reports" 2>&1)"
status=$?
echo "${out}"
[[ ${status} -eq 0 ]] || fail "run_benches exited ${status}"
grep -q "listed bench ran" <<<"${out}" || fail "the listed bench did not run"
grep -q "STALE" <<<"${out}" && fail "the unlisted bench_stale ran"
[[ -s "${TREE}/reports/BENCH_listed.json" ]] || fail "no report collected"

# A listed bench missing from the tree fails loudly.
printf 'bench_listed\nbench_gone\n' > "${TREE}/build/bench_targets.txt"
out="$("${RUN_BENCHES}" --build-dir "${TREE}/build" \
        --report-dir "${TREE}/reports" 2>&1)"
[[ $? -ne 0 ]] || fail "a listed but unbuilt bench did not fail the run"
grep -q "bench_gone" <<<"${out}" || fail "no message naming bench_gone"

echo "run_benches_stale: ok"
