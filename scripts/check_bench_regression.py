#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json sweep reports and fail on regressions.

Usage:
    check_bench_regression.py BASELINE CANDIDATE [options]

BASELINE and CANDIDATE are directories containing BENCH_*.json report files
(as collected by scripts/run_benches.sh), or paths to individual report
files.  Reports are matched by their "name" field.

Two classes of regression are detected:

  * cell drift: sweep cells are deterministic (same grid cell =>
    bit-identical result), so any change of a cell field other than wall_ms
    (accept ratio, deadline misses, aperiodic response time, ...) beyond
    --accept-ratio-eps means the middleware's behaviour changed.  That is
    sometimes intended (an optimisation that admits more) but must never
    happen silently.
  * wall-time regression: the candidate's total simulation wall time for a
    report exceeding the baseline's by more than --walltime-pct percent.

Reports without a "cells" section (e.g. fig8_overheads) get a schema check
only.  Exit codes: 0 = OK, 1 = regression found, 2 = usage / IO error.

Cross-profile safety: a report's "params" block records the run parameters
(seeds, horizon, ...).  When baseline and candidate were collected with
different parameters, their cells describe different simulations and any
"drift" would be noise — such report pairs are skipped with a note.  A key
present on one side only (a new bench knob, or the thread count that older
reports recorded) is noted and the cells are compared on the shared keys.
Every baseline cell must appear in the candidate; a missing cell is a
failure.
"""

import argparse
import json
import pathlib
import sys

MIN_SCHEMA_VERSION = 1
MAX_SCHEMA_VERSION = 2


def load_reports(path):
    """Return {report name: parsed json} for a directory or single file.

    When scanning a directory, files that are not sweep reports (e.g. the
    Google-Benchmark JSON that older report sets carry as
    BENCH_admission_micro.json) are skipped with a note; a file named
    explicitly must be a valid report.
    """
    p = pathlib.Path(path)
    scanning = p.is_dir()
    if scanning:
        files = sorted(p.glob("BENCH_*.json"))
    elif p.is_file():
        files = [p]
    else:
        sys.exit(f"error: {path} is neither a file nor a directory")
    reports = {}
    for f in files:
        try:
            doc = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"error: cannot read {f}: {e}")
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            if scanning:
                print(f"note: {f} is not a sweep report; skipping")
                continue
            sys.exit(f"error: {f} has no report name")
        schema = doc.get("schema_version")
        if (
            not isinstance(schema, int)
            or not MIN_SCHEMA_VERSION <= schema <= MAX_SCHEMA_VERSION
        ):
            sys.exit(
                f"error: {f} has schema_version {schema!r}, expected "
                f"{MIN_SCHEMA_VERSION}..{MAX_SCHEMA_VERSION}"
            )
        reports[name] = doc
    if not reports:
        sys.exit(f"error: no sweep reports found in {path}")
    return reports


def cell_key(cell):
    return (
        cell.get("combo", ""),
        cell.get("shape", ""),
        cell.get("variant", ""),
        cell.get("seed", 0),
    )


def comparable_params(doc):
    """The report params that must match for cell comparisons to make
    sense."""
    params = doc.get("params", {})
    if not isinstance(params, dict):
        return {}
    return params


def cell_drift(base, cand, eps):
    """Describe every field of a cell that differs, except wall_ms (host
    time): numbers beyond `eps`, anything else on inequality, and fields
    present on one side only."""
    changed = []
    for field in sorted((set(base) | set(cand)) - {"wall_ms"}):
        b, c = base.get(field), cand.get(field)
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in (b, c)
        )
        if (abs(b - c) > eps) if numeric else (b != c):
            changed.append(f"{field} {b} -> {c}")
    return changed


def compare_report(name, base, cand, eps, walltime_pct):
    """Return a list of human-readable failure strings."""
    failures = []
    base_cells = {cell_key(c): c for c in base.get("cells", [])}
    cand_cells = {cell_key(c): c for c in cand.get("cells", [])}

    if not base_cells and not cand_cells:
        return failures  # envelope-only report (fig8): schema check only

    missing = sorted(set(base_cells) - set(cand_cells))
    if missing:
        failures.append(
            f"{name}: {len(missing)} baseline cell(s) missing from "
            f"candidate (first: {missing[0]}); was the grid changed?"
        )
    extra = len(set(cand_cells) - set(base_cells))
    if extra:
        print(
            f"note: {name}: {extra} candidate cell(s) not in the baseline "
            f"grid (compared on the intersection)"
        )

    drifted = 0
    first_drift = None
    matched = sorted(set(base_cells) & set(cand_cells))
    if not matched:
        failures.append(
            f"{name}: no cells in common between baseline and candidate"
        )
    for key in matched:
        changed = cell_drift(base_cells[key], cand_cells[key], eps)
        if changed:
            drifted += 1
            if first_drift is None:
                first_drift = f"cell {key}: " + ", ".join(changed)
    if drifted:
        failures.append(
            f"{name}: cell drift in {drifted} cell(s) ({first_drift}); "
            f"sweep cells are deterministic, so this is a behaviour change "
            f"— update the baseline if intended"
        )

    # Sum wall time over the matched cells only: a candidate run with more
    # seeds must not masquerade as a wall-time regression.
    base_wall = sum(base_cells[k].get("wall_ms", 0.0) for k in matched)
    cand_wall = sum(cand_cells[k].get("wall_ms", 0.0) for k in matched)
    if base_wall > 0.0 and cand_wall > 0.0:
        pct = 100.0 * (cand_wall - base_wall) / base_wall
        if pct > walltime_pct:
            failures.append(
                f"{name}: wall time regressed {pct:+.1f}% "
                f"({base_wall:.1f} ms -> {cand_wall:.1f} ms, "
                f"threshold +{walltime_pct:.0f}%)"
            )
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="baseline report dir or file")
    parser.add_argument("candidate", help="candidate report dir or file")
    parser.add_argument(
        "--accept-ratio-eps",
        type=float,
        default=1e-12,
        help="tolerated absolute delta of any numeric cell field but "
        "wall_ms (default: %(default)g; cells are deterministic, so "
        "near-zero)",
    )
    parser.add_argument(
        "--walltime-pct",
        type=float,
        default=25.0,
        help="tolerated wall-time growth in percent (default: %(default)s)",
    )
    args = parser.parse_args()

    base_reports = load_reports(args.baseline)
    cand_reports = load_reports(args.candidate)

    failures = []
    compared = 0
    for name in sorted(base_reports):
        if name not in cand_reports:
            print(f"note: report {name} absent from candidate set; skipping")
            continue
        base_params = comparable_params(base_reports[name])
        cand_params = comparable_params(cand_reports[name])
        shared = set(base_params) & set(cand_params)
        if any(base_params[k] != cand_params[k] for k in shared):
            print(
                f"note: report {name} was collected with different run "
                f"parameters ({base_params} vs {cand_params}); cells "
                f"describe different simulations — skipping"
            )
            continue
        one_sided = sorted(set(base_params) ^ set(cand_params))
        if one_sided:
            # A bench grew (or dropped) a params key between the baseline
            # and the candidate.  The shared keys agree, so the overlapping
            # cells still describe the same simulations — compare them and
            # say what was one-sided instead of refusing a whole report
            # over a schema addition.
            print(
                f"note: report {name}: params key(s) {one_sided} present "
                f"on one side only; comparing on the shared keys"
            )
        compared += 1
        failures.extend(
            compare_report(
                name,
                base_reports[name],
                cand_reports[name],
                args.accept_ratio_eps,
                args.walltime_pct,
            )
        )
    for name in sorted(set(cand_reports) - set(base_reports)):
        print(f"note: report {name} is new in the candidate set")

    if compared == 0:
        sys.exit(
            "error: no comparable reports between the two sets (no common "
            "names, or all pairs skipped on run-parameter mismatch)"
        )

    if failures:
        print(f"FAIL: {len(failures)} regression(s) across {compared} report(s)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"OK: {compared} report(s) compared, no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
