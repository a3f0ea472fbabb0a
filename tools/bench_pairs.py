"""Benchmark runs of one checkout alone, or of a parent checkout against
a change, paired.

Usage, from the root of the change's checkout:

    python3 tools/bench_pairs.py --parent ../parent --parent-sha <parent's SHA> \\
        --workload csv-tall --pairs 10 --first-seed 2000 --out BENCH_<short-sha>.json
    python3 tools/bench_pairs.py --workload pool-deep --seeds 10 --out BENCH_<short-sha>.json

For each workload and each of --pairs seeds (--first-seed, --first-seed +
1, ...), runs `python3 lpbench/run.py --workload W --seed S --seconds X
--trace 0` once in each checkout, X being the run_seconds the change's
BENCHMARK.json declares, the parent first on even pairs and the change
first on odd ones, so that a host whose speed drifts favours neither
side. Each run's last line of standard output is the benchmark's
JSON object; a run that exits non-zero or prints none is counted as
failed and its pair left out of the comparison.

For each end-to-end metric the change's BENCHMARK.json declares, it prints
both sides' medians and quartiles, the change's wins, losses and ties over
the pairs by the metric's "better" direction, and whether a gain is
resolved: wins in at least nine tenths of the pairs and medians further
apart than the parent's quartiles. Without --parent it runs the change's
checkout alone, once a seed (--seeds is another name for --pairs), and
prints each metric's median and quartiles: a point of the trajectory.
It also prints the host's CPU count, the Python and numpy versions and
the BLAS threads the runs pinned. --out writes all of it, every run's
values and both checkouts' SHAs included, as one JSON file; a checkout
that is no git repository, such as a `git archive` copy, has its SHA
from --sha or --parent-sha, or else "unknown". The script edits no file
in either checkout; lpbench writes its own results under each
checkout's .lpbench-out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds):
    """(metrics {name: value}, metadata) of one lpbench run in `checkout`,
    or (None, the reason) when it failed."""
    try:
        done = subprocess.run(
            [sys.executable, "lpbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 120)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"no JSON on the last line: {lines[-1][:200]}"
    if not result.get("correct") or result.get("failed"):
        return None, f"{result.get('failed')} of {result.get('attempted')} experiments failed"
    metadata = {}
    for line in lines:
        if line.startswith("metadata "):
            metadata = json.loads(line[len("metadata "):])
    return {name: m["value"] for name, m in result["metrics"].items()}, metadata


def spread(values):
    """(median, lower quartile, upper quartile) of `values`."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (None,) * 3
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def summary(values):
    """One side's median, quartiles and values."""
    median, q1, q3 = spread(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(pairs, better):
    """Summary of one metric over (parent, change) value pairs, where
    `better` is "lower" or "higher"."""
    parent = summary([p for p, _ in pairs])
    change = summary([c for _, c in pairs])
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    resolved = bool(pairs) and wins >= 0.9 * len(pairs) and \
        sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"]
    return {"parent": parent, "change": change,
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "pairs": len(pairs), "gain_resolved": resolved}


def _side(s):
    return f"{s['median']:<10.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def declared(checkout):
    """The end-to-end metrics and the run length `checkout`'s BENCHMARK.json
    declares, and its workloads: ({name: better}, seconds, [name])."""
    with open(Path(checkout) / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, spec["run_seconds"], [
        w["name"] for w in spec["workloads"]]


def short_sha(checkout):
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default=None,
                        help="the parent commit's checkout (default: run the change alone)")
    parser.add_argument("--change", default=str(ROOT), help="the change's checkout")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default every one)")
    parser.add_argument("--pairs", "--seeds", dest="pairs", type=int, default=10,
                        help="seeds to run, a pair or one run each")
    parser.add_argument("--first-seed", type=int, default=2000)
    parser.add_argument("--sha", default=None, help="the change's short SHA, to record")
    parser.add_argument("--parent-sha", default=None, help="the parent's short SHA, to record")
    parser.add_argument("--out", default=None, help="write the results here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        parser.error("need --pairs >= 1 and --first-seed >= 0")
    if args.parent is None and args.parent_sha is not None:
        parser.error("--parent-sha needs --parent")
    metrics, seconds, workloads = declared(args.change)
    sides = {"change": args.change}
    results = {"change_sha": args.sha or short_sha(args.change)}
    if args.parent is not None:
        sides = {"parent": args.parent, **sides}
        results["parent_sha"] = args.parent_sha or short_sha(args.parent)
    results.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else None, seconds=seconds,
                   workloads={})
    for workload in args.workload or workloads:
        runs, failures = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            got = {}
            for side in order:
                values, info = run_once(sides[side], workload, seed, seconds)
                if values is None:
                    failures.append({"seed": seed, "side": side, "reason": info})
                else:
                    got[side] = values
                    results.setdefault("metadata", {})[side] = info
            if len(got) == len(sides):
                runs.append((seed, got))
            print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                f"{side} run_ref {got[side]['run_ref']:.4g}" for side in sides if side in got),
                flush=True)
        if args.parent is None:
            table = {name: summary([got["change"][name] for _, got in runs]) for name in metrics}
        else:
            table = {name: compare([(got["parent"][name], got["change"][name])
                                    for _, got in runs], better)
                     for name, better in metrics.items()}
        results["workloads"][workload] = {
            "seeds": [seed for seed, _ in runs], "failures": failures, "metrics": table}
        print(f"\n{workload}: {len(runs)} {'pairs' if args.parent else 'runs'}, "
              f"{len(failures)} failed runs")
        if not runs:
            continue
        if args.parent is None:
            print(f"{'metric':14s} median [q1, q3]")
            for name, s in table.items():
                print(f"{name:14s} {_side(s)}")
            continue
        print(f"{'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
              f"wins/losses/ties  gain resolved")
        for name, s in table.items():
            print(f"{name:14s} {_side(s['parent'])}{'':4s} {_side(s['change'])}{'':4s}"
                  f" {s['wins']}/{s['losses']}/{s['ties']}{'':10s} {s['gain_resolved']}")
    info = results.get("metadata", {}).get("change", {})
    print(f"\nnproc {results['nproc']} (affinity {results['affinity']}), python "
          f"{info.get('python')}, numpy {info.get('numpy')}, BLAS threads "
          f"{info.get('blas_threads')}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
