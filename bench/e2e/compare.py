#!/usr/bin/env python3
"""Judge the end-to-end benchmark across two checkouts, or one against itself.

Every run is on the held-out seed 1001.

Claim mode (a change against its parent):

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

runs every workload in both checkouts as 10 alternating pairs (odd pairs
start with the parent, even pairs with the change), then one traced run per
checkout and workload.  For each workload and end-to-end metric it reports
the medians and IQRs of both sides and one verdict:

  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR;
  unchanged   the change's median is no worse than the parent's by more
              than the metric's bound (a simulated metric: it is identical);
  REGRESSED   it is worse by more than the bound;
  CHANGED     a simulated metric differs: the change altered behaviour;
  unresolved  a side's spread (IQR / median) exceeds the bound and not every
              change run beats every parent run.

The traced runs' deterministic layer counts (deadline misses among them)
must be identical too.  The bounds, directions, workloads and run length
come from the parent's BENCHMARK.json; the benchmark files must be identical
in both checkouts.

Agreement mode (the same code, two sets of runs):

    python3 bench/e2e/compare.py --agree DIR [--runs 5]

runs two sets of --runs untraced runs per workload, plus one traced run per
set and workload.  It reports each metric's spread within a set (IQR /
median, flagged where it is not below a third of the bound) and checks that
the sets agree: every host-time median within its bound, and every
simulated metric and deterministic layer count identical run for run.

Both modes exit 0 when every run was correct and nothing regressed, changed
or disagreed, 1 otherwise, 2 on usage errors.  --out FILE saves every run's
result line as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
SEED = 1001
# Simulated outcomes: pure functions of the seed, identical on identical code.
SIMULATED = {"accept_ratio", "aperiodic_response_ms"}
# Deterministic per-layer ratios (every per-layer "count" is deterministic).
DETERMINISTIC_RATIOS = {"core.ac.admit_ratio", "events.delivery_ratio"}


def load_config(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_files(checkout, paths):
    files = {}
    for path in paths:
        for root, _, names in os.walk(os.path.join(checkout, path)):
            for name in names:
                full = os.path.join(root, name)
                with open(full, "rb") as f:
                    files[os.path.relpath(full, checkout)] = f.read()
    return files


def run_once(checkout, config, workload, trace):
    cmd = config["command"] + ["--workload", workload, "--seed", str(SEED),
                               "--seconds", str(config["run_seconds"]),
                               "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {workload} printed no result "
                         f"(exit {done.returncode})")
    result.update(checkout=checkout, workload=workload, trace=trace,
                  exit=done.returncode)
    tag = "ok" if result["correct"] and done.returncode == 0 else "INCORRECT"
    print(f"  {os.path.basename(os.path.abspath(checkout))} {workload} "
          f"trace {trace}: {tag}", file=sys.stderr)
    return result


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs]


def spread(vals):
    """IQR / median, with quartiles as statistics.quantiles(n=4) gives them."""
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / med if med else 0.0


def worse_by(parent_med, change_med, better):
    """How much worse the change's median is, as a share of the parent's."""
    if parent_med == 0:
        return 0.0
    gap = (change_med - parent_med) / parent_med
    return gap if better == "lower" else -gap


def judge(parent, change, metric):
    """Verdict for one (workload, metric) over paired runs."""
    name, bound, better = metric["name"], metric["bound"], metric["better"]
    p, c = values(parent, name), values(change, name)
    lower = better == "lower"
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_iqr = spread(p) * p_med
    all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
    worse = worse_by(p_med, c_med, better)
    if name in SIMULATED:
        verdict = "unchanged" if len(set(p + c)) == 1 else "CHANGED"
    elif max(spread(p), spread(c)) > bound and not all_better:
        verdict = "unresolved"
    elif wins >= 0.9 * len(p) and abs(c_med - p_med) > p_iqr and worse < 0:
        verdict = "gain"
    elif worse > bound:
        verdict = "REGRESSED"
    else:
        verdict = "unchanged"
    return {"metric": name, "parent_median": p_med, "change_median": c_med,
            "parent_iqr": p_iqr, "change_iqr": spread(c) * c_med,
            "wins": wins, "pairs": len(p), "worse_by": worse,
            "bound": bound, "verdict": verdict}


def deterministic_layer_metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" or name in DETERMINISTIC_RATIOS}


def layer_counts_differ(a, b):
    """Names of the deterministic layer counts two traced runs disagree on."""
    da, db = deterministic_layer_metrics(a), deterministic_layer_metrics(b)
    return sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))


def claim_mode(args):
    config = load_config(args.parent)
    if bench_files(args.parent, config["paths"]) != bench_files(
            args.change, config["paths"]):
        print("the benchmark differs between the checkouts; a change that "
              "claims a gain may not edit it", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in config["workloads"]]
    runs = []
    for i in range(PAIRS):
        order = ([args.parent, args.change] if i % 2 == 0
                 else [args.change, args.parent])
        for workload in workloads:
            for checkout in order:
                runs.append(run_once(checkout, config, workload, 0))
    for workload in workloads:
        for checkout in (args.parent, args.change):
            runs.append(run_once(checkout, config, workload, 1))
    failed = any(not r["correct"] or r["exit"] != 0 for r in runs)
    bad = False
    print(f"{'workload':16} {'metric':22} {'parent med':>12} "
          f"{'(IQR)':>10} {'change med':>12} {'(IQR)':>10} {'wins':>6} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in workloads:
        side = {ck: [r for r in runs if r["workload"] == workload
                     and r["checkout"] == ck and not r["trace"]]
                for ck in (args.parent, args.change)}
        for metric in config["end_to_end"]:
            v = judge(side[args.parent], side[args.change], metric)
            bad |= v["verdict"] in ("REGRESSED", "CHANGED")
            print(f"{workload:16} {v['metric']:22} {v['parent_median']:12.6g} "
                  f"{v['parent_iqr']:10.3g} {v['change_median']:12.6g} "
                  f"{v['change_iqr']:10.3g} {v['wins']:3}/{v['pairs']:<2} "
                  f"{100 * v['worse_by']:8.2f}% {v['bound']:6.2f}  "
                  f"{v['verdict']}")
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        differ = layer_counts_differ(*traced)
        bad |= bool(differ)
        print(f"{workload:16} traced layer counts: "
              f"{'identical' if not differ else 'CHANGED: ' + ', '.join(differ)}")
    save(args.out, runs)
    if failed:
        print("some runs were incorrect", file=sys.stderr)
    return 1 if failed or bad else 0


def agree_mode(args):
    config = load_config(args.agree)
    workloads = [w["name"] for w in config["workloads"]]
    sets = []
    for _ in range(2):
        runs = [run_once(args.agree, config, w, 0)
                for _ in range(args.runs) for w in workloads]
        runs += [run_once(args.agree, config, w, 1) for w in workloads]
        sets.append(runs)
    ok = all(r["correct"] and r["exit"] == 0 for runs in sets for r in runs)
    print(f"{'workload':16} {'metric':22} {'median A':>12} {'spread A':>9} "
          f"{'median B':>12} {'spread B':>9} {'drift':>8} {'bound':>6}")
    for workload in workloads:
        a, b = ([r for r in runs if r["workload"] == workload and not r["trace"]]
                for runs in sets)
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = values(a, name), values(b, name)
            ma, mb = statistics.median(va), statistics.median(vb)
            drift = abs(mb - ma) / ma if ma else 0.0
            notes = []
            if name in SIMULATED:
                if len(set(va + vb)) != 1:
                    notes.append("SIMULATED VALUES DIFFER")
                    ok = False
            elif drift > bound:
                notes.append("DRIFT OVER BOUND")
                ok = False
            if name != "setup_s" and max(spread(va), spread(vb)) > bound:
                notes.append("SPREAD OVER BOUND")
                ok = False
            elif max(spread(va), spread(vb)) >= bound / 3:
                notes.append("spread >= bound/3")
            print(f"{workload:16} {name:22} {ma:12.6g} "
                  f"{100 * spread(va):8.2f}% {mb:12.6g} "
                  f"{100 * spread(vb):8.2f}% {100 * drift:7.2f}% "
                  f"{bound:6.2f}  {' '.join(notes)}")
        ta, tb = ([r for r in runs if r["workload"] == workload and r["trace"]][0]
                  for runs in sets)
        differ = layer_counts_differ(ta, tb)
        ok &= not differ
        print(f"{workload:16} traced layer counts: "
              f"{len(deterministic_layer_metrics(ta))} deterministic, "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f"; trace_overhead_pct "
              f"{ta['metrics']['trace_overhead_pct']['value']:.1f} / "
              f"{tb['metrics']['trace_overhead_pct']['value']:.1f}")
    save(args.out, [r for runs in sets for r in runs])
    return 0 if ok else 1


def save(path, runs):
    if path:
        with open(path, "w") as f:
            json.dump(runs, f, indent=1)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--agree", metavar="DIR")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args()
    if args.agree and not (args.parent or args.change) and args.runs >= 2:
        return agree_mode(args)
    if args.parent and args.change and not args.agree:
        return claim_mode(args)
    parser.print_usage(sys.stderr)
    print("give PARENT_DIR CHANGE_DIR or --agree DIR (--runs >= 2)",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
